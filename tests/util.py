"""Shared helpers for the test suite: seeded random generators."""

from fractions import Fraction
from random import Random

from lndfilt.polynomials import MultiPoly, VarSet
from lndfilt.rings import RingPresentation


def random_fraction(rng: Random, span: int = 9, max_den: int = 5) -> Fraction:
    num = rng.randint(-span, span)
    return Fraction(num if num else 1, rng.randint(1, max_den))


def random_poly(
    rng: Random,
    varset: VarSet,
    max_terms: int = 6,
    max_exp: int = 4,
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in varset.names)
        terms[exps] = random_fraction(rng)
    return MultiPoly(varset, terms)


def grid_rings() -> list[RingPresentation]:
    """Full-family rings with P = S^d + 1, Q = Y^m over a parameter grid."""
    rings = []
    for n in (1, 2, 3):
        for e in (1, 2):
            for d in (2, 3):
                for m in (2, 3):
                    p = ["1"] + ["0"] * (d - 1)
                    q = ["0"] * m
                    rings.append(RingPresentation.full(n, e, p, q))
    return rings


def mixed_small_rings() -> list[RingPresentation]:
    """A handful of rings with nonzero coefficient tails, for rewriting tests."""
    return [
        RingPresentation.full(2, 1, ["0", "0"], ["0", "0"]),
        RingPresentation.full(1, 1, ["1", "0"], ["0", "0"]),
        RingPresentation.full(2, 2, ["X^2", "X", "0"], ["X", "0"]),
        RingPresentation.full(3, 1, ["1 + X^3", "0"], ["2*X", "0", "0"]),
        RingPresentation.full(2, 0, ["1", "X"], ["0", "1"]),
        RingPresentation.danielewski(1, ["-1", "0"]),
        RingPresentation.danielewski(2, ["1", "0", "X^2", "0"]),
    ]
