"""Breadth-first live-orbit closure, the reference for ``dlp.live_orbit``.

It walks where the closed form doubles, on plain ints: starting from the
input's support, it multiplies every value it reaches by a^(2^e) and by
b^(2^e) mod N, one step at a time, until no new value appears. Values of
N and above are not residues; the node circuit's permutation leaves them
fixed, so they close on themselves.
"""

from __future__ import annotations

from collections import deque

from distdlog.numtheory import ProblemInstance


def bfs_closure(instance: ProblemInstance, exponent: int, support) -> list[int]:
    """Every work value reached from ``support``, sorted."""
    N = instance.N
    steps = [pow(c, 1 << exponent, N) for c in (instance.a, instance.b)]
    seen = {int(y) for y in support}
    queue = deque(seen)
    while queue:
        y = queue.popleft()
        for c in steps:
            z = y if y >= N else y * c % N
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return sorted(seen)
