"""The candidate-scan alignment pass, the reference for ``dist.align_values``.

It searches where the closed form computes, on plain ints so that the
exhaustive comparison stays quick. For each node, from the last back, it
tries the shifts 0, +1, -1, ..., +2^(h-1), -2^(h-1) in turn on the node's
trailing h + 1 bits and takes the first that matches the leading h + 1
bits of the part already assembled. Failing that, it takes the first
closest one in the same order (smaller magnitude, then the positive sign)
and raises the fallback flag.
"""

from __future__ import annotations

from distdlog.dist import DistPlan


def _shift_candidates(h: int):
    yield 0
    for magnitude in range(1, (1 << (h - 1)) + 1):
        yield magnitude
        yield -magnitude


def scan_values(values: list[int], plan: DistPlan) -> tuple[int, bool]:
    """Reassemble per-node values of widths ``plan.measured``: ``(value, fallback)``."""
    h = plan.h
    overlap = 1 << (h + 1)
    combined, width = values[-1], plan.measured[-1]
    fallback = False
    for j in range(plan.k - 2, -1, -1):
        tail = values[j] % overlap
        target = combined >> (width - h - 1)
        chosen = None
        best = None
        for q in _shift_candidates(h):
            shifted = (tail + q) % overlap
            if shifted == target:
                chosen = q
                break
            diff = abs(shifted - target)
            d = min(diff, overlap - diff)
            if best is None or d < best[0]:
                best = (d, q)
        if chosen is None:
            fallback = True
            chosen = best[1]
        aligned = (values[j] + chosen) % (1 << plan.measured[j])
        rest = width - h - 1  # the assembled part below the overlap
        combined = (aligned << rest) | (combined & ((1 << rest) - 1))
        width = plan.measured[j] + rest
    return combined, fallback
