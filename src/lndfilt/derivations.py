"""Locally nilpotent derivations and the degree function they induce.

A derivation is stored by its images on the ambient generators; it acts on
canonical representatives through the Leibniz rule and is validated against
the defining relations at construction time.  The induced degree of a ring
element a is the least i with D^(i+1)(a) = 0, computed by honest iteration
(this is the oracle that the closed-form degree bookkeeping is tested
against).

The Leibniz rule runs in one integer pass.  At construction each nonzero
generator image is stored as integer numerators over one common denominator
den_D; for p = (1/den) sum n_a x^a the pass adds n_a * a_k * m_u at exponent
a - e_k + u for every variable k with a_k > 0 and every image term m_u x^u,
so D(p) comes out as integer numerators over den * den_D.  apply hands that
map straight to the ring's integer rewrite loop, and the coefficients turn
into Fractions once, at the end.  Checks that stay independent of this pass:
the written-out golden degrees and images of acceptance #1 and #2, the closed
form (monomial_degree) that degree_consistency compares the iteration with,
test_leibniz_rule (D(ab) = a D(b) + b D(a) on products formed in the ring),
and the test that compares apply with the MultiPoly derivative route,
sum_k dp/dx_k * D(x_k) followed by normal_form.
"""

from __future__ import annotations

from math import lcm
from operator import add
from typing import Mapping

from .polynomials import MultiPoly, _fractions, _from_terms, _numerators
from .rings import QuotElem, RingPresentation


class BudgetExceededError(RuntimeError):
    """Iterating the derivation did not reach zero within the given budget."""


class Derivation:
    """A k-derivation of one presented ring, given by generator images."""

    __slots__ = ("ring", "images", "_table")

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
        # den_D and, per nonzero image, (variable index, ((exps, numerator), ...))
        den = lcm(*[c.denominator for img in got.values() for c in img.rep.terms.values()])
        self._table = den, tuple(
            (k, tuple((u, c.numerator * (den // c.denominator)) for u, c in img.rep.terms.items()))
            for k, img in enumerate(got.values())
            if not img.is_zero()
        )
        for rel in ring.relation_polys():
            residual = self._formal_apply(rel)
            if not ring.normal_form(residual).is_zero():
                raise ValueError(
                    f"images do not define a derivation: relation {rel} maps to "
                    f"{ring.normal_form(residual)}"
                )

    def _leibniz(self, p: MultiPoly) -> tuple[dict[tuple[int, ...], int], int]:
        """D(p) on the ambient polynomial ring: integer numerators and their denominator."""
        nums, den = _numerators(p.terms)
        image_den, images = self._table
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for exps, c in zip(p.terms, nums):
            for k, image in images:
                power = exps[k]
                if not power:
                    continue
                base = list(exps)
                base[k] -= 1
                c_k = c * power
                for u, m in image:
                    key = tuple(map(add, base, u))
                    v = get(key, 0) + c_k * m
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return out, den * image_den

    def _formal_apply(self, p: MultiPoly) -> MultiPoly:
        """Extend through the Leibniz rule on the ambient polynomial ring (unreduced)."""
        out, den = self._leibniz(p)
        return _from_terms(self.ring.varset, dict(zip(out, _fractions(out.values(), den))))

    def apply(self, a: QuotElem) -> QuotElem:
        if a.ring != self.ring:
            raise ValueError("element belongs to a different ring")
        out, den = self._leibniz(a.rep)
        return self.ring._reduce(out, den, "s_first", False)

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
