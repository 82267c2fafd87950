"""Brute-force combinatorial oracles, deliberately naive.

Nothing here shares code with the formula paths under test: derangements
are counted by walking every permutation, cyclic derangements by walking
every (permutation, coloring) pair of the r-colored wreath model.
"""

from itertools import permutations, product

from .exact import DerangeDomainError, SizeTooLarge


def count_derangements_brute(n: int) -> int:
    """Count fixed-point-free permutations of range(n) by full enumeration."""
    if n < 0 or n > 9:
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
    sigma(i) = i and c_i = 0, by full enumeration."""
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    if n < 0:
        raise DerangeDomainError("need n >= 0")
    total = r ** n
    for i in range(2, n + 1):
        total *= i
    if total > 10 ** 7:
        raise SizeTooLarge(f"r^n * n! = {total} exceeds 10^7")
    count = 0
    for perm in permutations(range(n)):
        for colors in product(range(r), repeat=n):
            fixed = False
            for i in range(n):
                if perm[i] == i and colors[i] == 0:
                    fixed = True
                    break
            if not fixed:
                count += 1
    return count
