"""Brute-force combinatorial oracles, deliberately naive.

Nothing here shares code with the formula paths under test. Derangements
are the permutations of range(n) with no fixed point. Their walk places
values position by position and never puts value i at position i; the
last four positions take every ordering of the values left, and an
ordering counts when it fixes none of them. So each derangement is visited
once, and a permutation that is not one is cut off at its first fixed
point before the tail.

Cyclic derangements are the (permutation, coloring) pairs of the r-colored
wreath model in which no fixed point has color 0. That walk needs every
permutation's number of fixed points j, so it visits all n! of them, and
the product rule counts the allowed colorings of each, r - 1 colors on
each fixed point and r on every other point, (r-1)^j r^(n-j). So it costs
n! for every r, not r^n n!, and its sum is the rencontres expansion
sum_j R(n, j) (r-1)^j r^(n-j) (Riordan 1958) that
`polys.cyclic_derangement` never uses.
"""

from itertools import permutations, repeat
from operator import ne

from .exact import DerangeDomainError, SizeTooLarge


def count_derangements_brute(n: int) -> int:
    """Count fixed-point-free permutations of range(n) by enumerating them."""
    if n < 0:
        raise DerangeDomainError("need n >= 0")
    if n > 9:
        raise SizeTooLarge(f"enumeration capped at n = 9, got {n}")
    tail = range(max(n - 4, 0), n)  # a tail of 3 or 5 was slower at n <= 9

    def place(pos: int, free: tuple) -> int:
        """Derangements that put the values `free` at positions pos..n-1."""
        if pos == tail.start:
            # one all(map(ne, p, tail)) per ordering p of the tail
            return sum(map(all, map(map, repeat(ne), permutations(free),
                                    repeat(tail))))
        return sum(place(pos + 1, free[:i] + free[i + 1:])
                   for i, v in enumerate(free) if v != pos)

    return place(0, tuple(range(n)))


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
