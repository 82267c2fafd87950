"""Brute-force combinatorial oracles, deliberately naive.

Nothing here shares code with the formula paths under test: both oracles
walk every permutation of range(n). Derangements are the permutations with
no fixed point. Cyclic derangements are the (permutation, coloring) pairs
of the r-colored wreath model in which no fixed point has color 0; the walk
counts each permutation's fixed points j, and the product rule counts its
allowed colorings, r - 1 colors on each fixed point and r on every other
point, (r-1)^j r^(n-j). So the walk costs n! for every r, not r^n n!, and
its sum is the rencontres expansion sum_j R(n, j) (r-1)^j r^(n-j) (Riordan
1958) that `polys.cyclic_derangement` never uses.
"""

from itertools import permutations

from .exact import DerangeDomainError, SizeTooLarge


def count_derangements_brute(n: int) -> int:
    """Count fixed-point-free permutations of range(n) by full enumeration."""
    if n < 0:
        raise DerangeDomainError("need n >= 0")
    if n > 9:
        raise SizeTooLarge(f"enumeration capped at n = 9, got {n}")
    count = 0
    for perm in permutations(range(n)):
        fixed = False
        for i in range(n):
            if perm[i] == i:
                fixed = True
                break
        if not fixed:
            count += 1
    return count


def count_cyclic_derangements_brute(n: int, r: int) -> int:
    """Count pairs (sigma, coloring c in {0..r-1}^n) with no index i having
    sigma(i) = i and c_i = 0: walk every sigma once, counting the colorings
    of one with j fixed points as (r-1)^j r^(n-j)."""
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    if n < 0:
        raise DerangeDomainError("need n >= 0")
    if n > 9:
        raise SizeTooLarge(f"enumeration capped at n = 9, got {n}")
    by_fixed = [0] * (n + 1)
    for perm in permutations(range(n)):
        fixed = 0
        for i in range(n):
            if perm[i] == i:
                fixed += 1
        by_fixed[fixed] += 1
    return sum(perms * (r - 1) ** j * r ** (n - j)
               for j, perms in enumerate(by_fixed))
