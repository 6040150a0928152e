"""The graded algebra attached to the degree filtration.

Filtering a ring by F_i = { a : degree(a) <= i } (degree induced by the
canonical derivation) yields an associated graded algebra.  Because every
canonical representative splits monomial-by-monomial along the degree, a
graded class is stored as the homogeneous part of a representative, tagged
with its degree.  That part is the ring's top slice (RingPresentation.top_slice)
of the representative: gr_leading, graded products and hat_ideal_tops all read
it.  The public constructor checks a part given from outside; the classes
built here are homogeneous by construction and go through _graded unchecked.
"""

from __future__ import annotations

from .polynomials import MultiPoly, _count, ladder_power
from .rings import QuotElem, RingPresentation


class GradedElem:
    """A homogeneous class of the associated graded algebra.

    The zero class carries a degree tag too, so that sums which cancel
    (top-degree drop) stay well-typed.
    """

    __slots__ = ("ring", "grade", "part")

    def __init__(self, ring: RingPresentation, grade: int, part: MultiPoly):
        _count(grade, "grade")
        ring._require_own(part)
        for exps in part.nums:
            got = ring.monomial_degree(exps)
            if got != grade:
                raise ValueError(f"term of degree {got} in a grade-{grade} class")
        self.ring, self.grade, self.part = ring, grade, part

    def is_zero(self) -> bool:
        return self.part.is_zero()

    def _check(self, other: GradedElem) -> None:
        if self.ring != other.ring:
            raise ValueError("graded classes from different rings")

    def __add__(self, other: GradedElem) -> GradedElem:
        if not isinstance(other, GradedElem):
            return NotImplemented
        self._check(other)
        if self.grade != other.grade:
            raise ValueError(f"cannot add graded classes of degrees {self.grade} and {other.grade}")
        return _graded(self.ring, self.grade, self.part + other.part)

    def __neg__(self) -> GradedElem:
        return _graded(self.ring, self.grade, -self.part)

    def __sub__(self, other: GradedElem) -> GradedElem:
        if not isinstance(other, GradedElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: GradedElem) -> GradedElem:
        """Product in the graded algebra: multiply, reduce, keep the top slice.

        The canonical form of the product never exceeds the degree sum; the
        part of lower degree is exactly what the associated graded
        construction quotients away.
        """
        if not isinstance(other, GradedElem):
            return NotImplemented
        self._check(other)
        grade = self.grade + other.grade
        top, part = self.ring.top_slice(self.ring.normal_form(self.part * other.part).rep)
        if top is not None and top > grade:
            raise RuntimeError(f"degree grew under multiplication: {top} > {grade}")
        return _graded(self.ring, grade, part if top == grade else MultiPoly.zero(self.ring.varset))

    def __pow__(self, k: int) -> GradedElem:
        one = _graded(self.ring, 0, MultiPoly.constant(self.ring.varset, 1))
        return ladder_power({0: one, 1: self}, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedElem):
            return NotImplemented
        return (self.ring, self.grade, self.part) == (other.ring, other.grade, other.part)

    def __hash__(self) -> int:
        return hash((self.ring, self.grade, self.part))

    def __str__(self) -> str:
        return f"[{self.part}]_{self.grade}"

    def __repr__(self) -> str:
        return f"GradedElem({self})"


def _graded(ring: RingPresentation, grade: int, part: MultiPoly) -> GradedElem:
    """The class of part in grade, for a part homogeneous of that grade: no check, no copy."""
    out = GradedElem.__new__(GradedElem)
    out.ring, out.grade, out.part = ring, grade, part
    return out


def gr_leading(a: QuotElem) -> GradedElem:
    """The leading graded class of a nonzero element (error on zero)."""
    deg, part = a.ring.top_slice(a.rep)
    if deg is None:
        raise ValueError("the zero element has no leading graded class")
    return _graded(a.ring, deg, part)


def graded_generators(ring: RingPresentation) -> dict[str, GradedElem]:
    """Leading classes of the ambient generators."""
    return {nm: gr_leading(ring.generator(nm)) for nm in ring.varset.names}


def hat_ideal_tops(ring: RingPresentation) -> list[MultiPoly]:
    """Top slices of the defining relations.

    Under the weight (0, 1, d, m*d) on (x, s, y, z) these are the relations
    presenting the associated graded algebra: x^n*y - s^d and (full family)
    y^m - x^e*z.
    """
    return [ring.top_slice(rel)[1] for rel in ring.relation_polys()]
