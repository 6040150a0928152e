"""The graded algebra attached to the degree filtration.

Filtering a ring by F_i = { a : degree(a) <= i } (degree induced by the
canonical derivation) yields an associated graded algebra.  Because every
canonical representative splits monomial-by-monomial along the degree, a
graded class is stored as the homogeneous part of a representative, tagged
with its degree.
"""

from __future__ import annotations

from .polynomials import MultiPoly, _from_terms, ladder_power
from .rings import QuotElem, RingPresentation


class GradedElem:
    """A homogeneous class of the associated graded algebra.

    The zero class carries a degree tag too, so that sums which cancel
    (top-degree drop) stay well-typed.
    """

    __slots__ = ("ring", "grade", "part")

    def __init__(self, ring: RingPresentation, grade: int, part: MultiPoly):
        if part.varset != ring.varset:
            raise ValueError("graded part varset does not match the ring")
        for exps in part.nums:
            if ring.monomial_degree(exps) != grade:
                raise ValueError(
                    f"term of degree {ring.monomial_degree(exps)} in a grade-{grade} class"
                )
        self.ring = ring
        self.grade = grade
        self.part = part

    def is_zero(self) -> bool:
        return self.part.is_zero()

    def _check(self, other: GradedElem) -> None:
        if self.ring != other.ring:
            raise ValueError("graded classes from different rings")

    def __add__(self, other: GradedElem) -> GradedElem:
        self._check(other)
        if self.grade != other.grade:
            raise ValueError(
                f"cannot add graded classes of degrees {self.grade} and {other.grade}"
            )
        return GradedElem(self.ring, self.grade, self.part + other.part)

    def __neg__(self) -> GradedElem:
        return GradedElem(self.ring, self.grade, -self.part)

    def __sub__(self, other: GradedElem) -> GradedElem:
        return self + (-other)

    def __mul__(self, other: GradedElem) -> GradedElem:
        """Product in the graded algebra: multiply, reduce, keep the top slice.

        The canonical form of the product never exceeds the degree sum; the
        part of lower degree is exactly what the associated graded
        construction quotients away.
        """
        self._check(other)
        grade = self.grade + other.grade
        reduced = self.ring.normal_form(self.part * other.part).rep
        keep = {}
        for exps, n in reduced.nums.items():
            got = self.ring.monomial_degree(exps)
            if got > grade:
                raise RuntimeError(f"degree grew under multiplication: {exps}")
            if got == grade:
                keep[exps] = n
        return GradedElem(self.ring, grade, _from_terms(self.ring.varset, keep, reduced.den))

    def __pow__(self, k: int) -> GradedElem:
        one = GradedElem(self.ring, 0, MultiPoly.constant(self.ring.varset, 1))
        return ladder_power({0: one, 1: self}, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedElem):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.grade == other.grade
            and self.part == other.part
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.grade, self.part))

    def __str__(self) -> str:
        return f"[{self.part}]_{self.grade}"

    def __repr__(self) -> str:
        return f"GradedElem({self})"


def gr_leading(a: QuotElem) -> GradedElem:
    """The leading graded class of a nonzero element (error on zero)."""
    deg = a.degree()
    if deg is None:
        raise ValueError("the zero element has no leading graded class")
    keep = {exps: n for exps, n in a.rep.nums.items() if a.ring.monomial_degree(exps) == deg}
    return GradedElem(a.ring, deg, _from_terms(a.ring.varset, keep, a.rep.den))


def graded_generators(ring: RingPresentation) -> dict[str, GradedElem]:
    """Leading classes of the ambient generators."""
    return {nm: gr_leading(ring.generator(nm)) for nm in ring.varset.names}


def hat_ideal_tops(ring: RingPresentation) -> list[MultiPoly]:
    """Top weight-components of the defining relations.

    Under the weight (0, 1, d, m*d) on (x, s, y, z) these are the relations
    presenting the associated graded algebra: x^n*y - s^d and (full family)
    y^m - x^e*z.
    """
    w = ring.degree_weights()
    return [rel.top_component(w) for rel in ring.relation_polys()]
