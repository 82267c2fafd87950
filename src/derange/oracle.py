"""Brute-force combinatorial oracles: counts of permutations with
restricted positions (Riordan 1958, chs. 7-8), sharing no code with the
formula paths under test.

`fixed_point_histogram(n)` counts the permutations of range(n) by their
number of fixed points j, the rencontres numbers R(n, j). It fills the
positions in order and counts by state, not by path: for each set S of
values, the ways to give positions 0..|S|-1 exactly the values of S, split
by how many of them are fixed points. The last of those positions holds
some v of S, and it is a fixed point when v = |S| - 1, so the ways of S
are the sum over v of those of S minus v, shifted one fixed point up for
that one v. Each of the 2^n sets is computed once, in O(2^n n) steps in
place of n! paths. A set's split is held as one integer, its polynomial
sum_j count_j y^j at y = 2^w, where w is the bit length of n!: no count
exceeds n!, so the w-bit fields never carry into each other, and one
shift moves a whole split up by one fixed point.

Derangements are the permutations with no fixed point, R(n, 0). Cyclic
derangements are the (permutation, coloring) pairs of the r-colored wreath
model in which no fixed point has color 0; a permutation with j fixed
points has (r-1)^j r^(n-j) such colorings, so the count is the rencontres
expansion sum_j R(n, j) (r-1)^j r^(n-j), which `polys.cyclic_derangement`
never uses.
"""

from math import factorial
from typing import List

from .exact import DerangeDomainError, SizeTooLarge


def fixed_point_histogram(n: int) -> List[int]:
    """[R(n, 0), ..., R(n, n)]: the permutations of range(n) with exactly j
    fixed points, for each j."""
    if n < 0:
        raise DerangeDomainError("need n >= 0")
    if n > 9:
        raise SizeTooLarge(f"enumeration capped at n = 9, got {n}")
    width = factorial(n).bit_length()
    bits = [1 << v for v in range(n)]
    ways = [1]  # ways[S], S a bit set of values; the empty set has one way
    for s in range(1, 1 << n):
        last = 1 << (s.bit_count() - 1)  # value |S| - 1 at position |S| - 1
        total = 0
        for b in bits:
            if s & b:
                before = ways[s ^ b]
                total += before << width if b == last else before
        ways.append(total)
    mask = (1 << width) - 1
    return [ways[-1] >> (width * j) & mask for j in range(n + 1)]


def count_derangements_brute(n: int) -> int:
    """Count the fixed-point-free permutations of range(n)."""
    return fixed_point_histogram(n)[0]


def count_cyclic_derangements_brute(n: int, r: int) -> int:
    """Count pairs (sigma, coloring c in {0..r-1}^n) with no index i having
    sigma(i) = i and c_i = 0, counting the colorings of a sigma with j
    fixed points as (r-1)^j r^(n-j)."""
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    return sum(perms * (r - 1) ** j * r ** (n - j)
               for j, perms in enumerate(fixed_point_histogram(n)))
