"""The nested-loop alignment facts, the reference for
``verify.suite_alignment_facts``.

It enumerates the same (t, h, word, shift) cases one at a time over
``BitString`` words, with ``wrap_add`` and ``slice`` doing the arithmetic
that the suite does on int64 arrays.
"""

from __future__ import annotations

from distdlog.bits import BitString, wrap_add
from distdlog.verify import ALIGNMENT_MAX_T, CheckResult, _result


def alignment_facts_loops() -> list[CheckResult]:
    unique_ok = True
    decompose_ok = True
    for t in range(3, ALIGNMENT_MAX_T + 1):
        for h in range(2, min(t - 1, 4) + 1):
            tail_lo = t - h  # window [t-h, t], h+1 bits
            for wv in range(1 << t):
                w = BitString(t, wv)
                w_tail = w.slice(tail_lo, t)
                for b1 in (0, 1, -1):
                    x = wrap_add(w, -b1)  # so that x + b1 == w
                    x_tail = x.slice(tail_lo, t)
                    for b2 in range(-(1 << (h - 2)), (1 << (h - 2)) + 1):
                        z = wrap_add(w_tail, b2)
                        matches = [
                            q
                            for q in range(-(1 << (h - 1)), (1 << (h - 1)) + 1)
                            if wrap_add(x_tail, q).value == z.value
                        ]
                        unique_ok &= len(matches) == 1
                        decompose_ok &= matches == [b1 + b2]

    restrict_ok = True
    for t in range(3, ALIGNMENT_MAX_T + 1):
        for h in range(2, t + 1):
            bound = 1 << (h - 2)
            for xv in range(1 << t):
                x = BitString(t, xv)
                x_tail = x.slice(t - h + 1, t)
                for b0 in range(-bound, bound + 1):
                    y = wrap_add(x, b0)
                    y_tail = y.slice(t - h + 1, t)
                    solutions = [
                        b
                        for b in range(-bound, bound + 1)
                        if wrap_add(x, b).value == y.value
                    ]
                    restrict_ok &= solutions == [b0]
                    for b in range(-bound, bound + 1):
                        full = wrap_add(x, b).value == y.value
                        tail = wrap_add(x_tail, b).value == y_tail.value
                        restrict_ok &= full == tail
    return [
        _result(f"overlap shift unique and b1+b2 (t<={ALIGNMENT_MAX_T})", unique_ok and decompose_ok,
                unique_ok and decompose_ok, "all hold"),
        _result(f"shift acts on word iff on trailing h bits (t<={ALIGNMENT_MAX_T})", restrict_ok,
                restrict_ok, "all hold"),
    ]
