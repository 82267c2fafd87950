"""Brute-force combinatorial oracles: counts of permutations with
restricted positions (Riordan 1958, chs. 7-8), sharing no code with the
formula paths under test.

Cyclic derangements are the (permutation, coloring) pairs of the r-colored
wreath model in which no fixed point has color 0: position i of sigma has
r - 1 allowed colors when sigma(i) = i and r otherwise, so their count is
the permanent sum_sigma Pi_i (r - [sigma(i) = i]) of the n x n matrix with
r - 1 on the diagonal and r off it (Minc, Permanents, 1978). The
derangements are its r = 1 case, the permanent of J - I. `exact._laplace`
expands the permanent over the 2^n column sets, the expansion that
`hankel.det_cofactor` runs with signs.
"""

from .exact import DerangeDomainError, SizeTooLarge, _laplace

# Largest n either count expands: 2^9 column sets
ENUMERATION_CAP = 9


def _wreath_permanent(n: int, r: int) -> int:
    if n < 0:
        raise DerangeDomainError("need n >= 0")
    if n > ENUMERATION_CAP:
        raise SizeTooLarge(
            f"enumeration capped at n = {ENUMERATION_CAP}, got {n}")
    return _laplace([[r - (i == j) for j in range(n)] for i in range(n)],
                    signed=False)[-1]


def count_derangements_brute(n: int) -> int:
    """Count the fixed-point-free permutations of range(n)."""
    return _wreath_permanent(n, 1)


def count_cyclic_derangements_brute(n: int, r: int) -> int:
    """Count pairs (sigma, coloring c in {0..r-1}^n) with no index i having
    sigma(i) = i and c_i = 0: the permanent of the matrix whose entry (i, j)
    is the number r - [i = j] of colors position i may take with value j."""
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    return _wreath_permanent(n, r)
