"""Locally nilpotent derivations and the degree function they induce.

A derivation is stored by its images on the ambient generators; it acts on
canonical representatives through the Leibniz rule and is validated against
the defining relations at construction time.  The induced degree of a ring
element a is the least i with D^(i+1)(a) = 0, computed by honest iteration
(this is the oracle that the closed-form degree bookkeeping is tested
against).
"""

from __future__ import annotations

from typing import Mapping

from .polynomials import MultiPoly
from .rings import QuotElem, RingPresentation


class BudgetExceededError(RuntimeError):
    """Iterating the derivation did not reach zero within the given budget."""


class Derivation:
    """A k-derivation of one presented ring, given by generator images."""

    __slots__ = ("ring", "images")

    def __init__(self, ring: RingPresentation, images: Mapping[str, QuotElem]):
        self.ring = ring
        got = {}
        for nm in ring.varset.names:
            if nm not in images:
                raise ValueError(f"no derivation image for generator {nm!r}")
            val = images[nm]
            if val.ring != ring:
                raise ValueError(f"image of {nm!r} lives in a different ring")
            got[nm] = val
        self.images = got
        for rel in ring.relation_polys():
            residual = self._formal_apply(rel)
            if not ring.normal_form(residual).is_zero():
                raise ValueError(
                    f"images do not define a derivation: relation {rel} maps to "
                    f"{ring.normal_form(residual)}"
                )

    def _formal_apply(self, p: MultiPoly) -> MultiPoly:
        """Extend through the Leibniz rule on the ambient polynomial ring."""
        out = MultiPoly.zero(self.ring.varset)
        for nm in self.ring.varset.names:
            img = self.images[nm].rep
            if img.is_zero():
                continue
            out = out + p.derivative(nm) * img
        return out

    def apply(self, a: QuotElem) -> QuotElem:
        if a.ring != self.ring:
            raise ValueError("element belongs to a different ring")
        return self.ring.normal_form(self._formal_apply(a.rep))

    def __call__(self, a: QuotElem) -> QuotElem:
        return self.apply(a)

    def iterate(self, a: QuotElem, k: int) -> QuotElem:
        """The k-fold application D^k(a)."""
        if k < 0:
            raise ValueError("iteration count must be non-negative")
        out = a
        for _ in range(k):
            if out.is_zero():
                break
            out = self.apply(out)
        return out

    def default_budget(self, a: QuotElem) -> int:
        """A safe nilpotency budget from the ambient size of a."""
        if a.is_zero():
            return 1
        total = max(sum(exps) for exps in a.rep.terms)
        return max(self.ring.weights) * total + 1

    def degree(self, a: QuotElem, bound: int | None = None) -> int | None:
        """min{ i : D^(i+1)(a) = 0 }, or None for a = 0 (minus infinity).

        Raises BudgetExceededError when D^(bound+1)(a) is still nonzero,
        which for a locally nilpotent derivation means the bound was too
        small.
        """
        if a.ring != self.ring:
            raise ValueError("element belongs to a different ring")
        if a.is_zero():
            return None
        if bound is None:
            bound = self.default_budget(a)
        current = a
        for i in range(bound + 1):
            current = self.apply(current)
            if current.is_zero():
                return i
        raise BudgetExceededError(
            f"derivation budget {bound} exceeded on {a}; still nonzero: {current}"
        )


def canonical_derivation(ring: RingPresentation) -> Derivation:
    """The distinguished locally nilpotent derivation of a presented ring.

    Sends x to 0 and s to x^(n+e); the images of y (and z) are forced by the
    relations:  y -> x^e * dP/dS,  z -> dQ/dY * dP/dS - x^n.  On danielewski
    rings (e = 0) this is x^n * d/dS + dP/dS * d/dY.  The cylinder variable
    T, when present, is sent to 0.
    """
    vs = ring.varset
    x = MultiPoly.variable(vs, "X")
    dp_ds = ring.p_poly().derivative("S")
    images = {
        "X": ring.zero(),
        "S": ring.element(x ** (ring.n + ring.e)),
        "Y": ring.element(x ** ring.e * dp_ds),
    }
    if ring.family == "full":
        dq_dy = ring.q_poly().derivative("Y")
        images["Z"] = ring.element(dq_dy * dp_ds - x ** ring.n)
    if ring.cylinder:
        images["T"] = ring.zero()
    return Derivation(ring, images)
