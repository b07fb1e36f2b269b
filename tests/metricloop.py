"""The per-case distance loops, the references for ``verify.suite_metric``'s
random row and for ``verify.suite_prefix_bound``.

``random_case_ok`` checks one random case of the metric suite over
``BitString`` words, with ``bits.circ_dist`` and ``BitString.slice`` doing
the arithmetic, and ``metric_random_loop`` runs it case by case, the way the
suite did before it drew its cases as arrays. ``prefix_bound_loops`` is the
t0-outer triple loop the prefix suite ran before it built each t1's
prefix-distance table once.
"""

from __future__ import annotations

import numpy as np

from distdlog.bits import BitString, circ_dist
from distdlog.verify import METRIC_RANDOM_CASES, PREFIX_MAX_T, CheckResult, _result


def random_case_ok(t: int, xv: int, yv: int, zv: int, t0: int) -> bool:
    x, y, z = BitString(t, xv), BitString(t, yv), BitString(t, zv)
    ok = (circ_dist(x, y) == 0) == (xv == yv)
    ok &= circ_dist(x, y) == circ_dist(y, x)
    ok &= circ_dist(x, z) <= circ_dist(x, y) + circ_dist(y, z)
    if circ_dist(x, y) < (1 << (t - t0)):
        ok &= circ_dist(x.slice(1, t0), y.slice(1, t0)) <= 1
    return ok


def metric_random_loop(cases) -> CheckResult:
    """The random row of ``suite_metric`` over (t, x, y, z, t0) int cases."""
    ok = True
    for case in cases:
        ok &= random_case_ok(*case)
    return _result(f"distance axioms random t<=16 ({METRIC_RANDOM_CASES} cases)", ok, ok, "all hold")


def prefix_bound_loops() -> list[CheckResult]:
    ok = True
    for t in range(2, PREFIX_MAX_T + 1):
        vals = np.arange(1 << t, dtype=np.int64)
        diff = np.abs(vals[:, None] - vals[None, :])
        D = np.minimum(diff, (1 << t) - diff)
        for t0 in range(1, t + 1):
            mask = D < (1 << (t - t0))
            for t1 in range(t0, t + 1):
                prefix = vals >> (t - t1)
                pdiff = np.abs(prefix[:, None] - prefix[None, :])
                pd = np.minimum(pdiff, (1 << t1) - pdiff)
                ok &= bool((pd[mask] <= (1 << (t1 - t0))).all())
    return [_result(f"prefix-distance bound exhaustive t<={PREFIX_MAX_T}", ok, ok, "all hold")]
