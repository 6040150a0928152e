"""Locally nilpotent derivations and the degree function they induce.

A derivation is stored by its images on the ambient generators; it acts on
canonical representatives through the Leibniz rule and is validated against
the defining relations at construction time.  The induced degree of a ring
element a is the least i with D^(i+1)(a) = 0, computed by honest iteration
(this is the oracle that the closed-form degree bookkeeping is tested
against).

The Leibniz rule runs in one integer pass on packed exponent keys (the key
format of polynomials.py).  At construction each nonzero generator image is
stored as integer numerators over one common denominator den_D; for p =
(1/den) sum n_a x^a the pass adds n_a * a_k * m_u at key a - x_k + u for every
k with a_k > 0 and every image term m_u x^u, one int addition per term, so
D(p) comes out as numerators over den * den_D.  That map goes straight to the
ring's rewrite loop, which hands back the canonical map of D(p), still packed
(_step).  degree and iterate feed each result to the next step, so the orbit
a, D(a), D^2(a), ... stays packed from a's representative to the empty map:
degree builds no exponent tuple, and a result is unpacked only where a caller
asks for an element (apply's result, iterate's last, the budget error's
message).  Guard and restart: the pass adds each input key, whose guard bits
are clear, to one image move, so no field carries (polynomials' key format);
a field that reaches its guard bit stays exact, and the rewrite loop, which
tests every key before each pass, moves the map to double the width before
that key is added again.  With rational tails (td > 1) or a scaled D (den_D >
1) the denominator grows, so after a step with den != 1 the map and den are
divided by the gcd of den and all numerators, the lowest terms that MultiPoly
keeps.  Checks independent of this pass: the written-out golden degrees and
images of acceptance #1 and #2, the closed form (monomial_degree) that
degree_consistency compares with, test_leibniz_rule (D(ab) = a D(b) + b D(a)
on products formed in the ring), and the tests comparing apply, degree and
iterate with the MultiPoly derivative route, sum_k dp/dx_k * D(x_k), reduced
by normal_form or by a Fraction rewrite loop.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping

from .polynomials import MultiPoly, _Packing, _from_terms, _packed, _unpacked
from .rings import QuotElem, RingPresentation


class BudgetExceededError(RuntimeError):
    """Iterating the derivation did not reach zero within the given budget."""


class Derivation:
    """A k-derivation of one presented ring, given by generator images."""

    __slots__ = ("ring", "images", "_table", "_packed")

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
        den = lcm(*[img.rep.den for img in got.values()])
        self._table = den, tuple(
            (k, tuple((u, n * (den // img.rep.den)) for u, n in img.rep.nums.items()))
            for k, img in enumerate(got.values())
            if not img.is_zero()
        )
        self._packed: dict[int, tuple | None] = {}
        for rel in ring.relation_polys():
            residual = self._formal_apply(rel)
            if not ring.normal_form(residual).is_zero():
                raise ValueError(
                    f"images do not define a derivation: relation {rel} maps to "
                    f"{ring.normal_form(residual)}"
                )

    def _packed_images(self, packing: _Packing) -> tuple | None:
        """The image table at one packing (_Packing.table), built once per width.

        None when an image exponent does not fit the packing.
        """
        if packing.width not in self._packed:
            self._packed[packing.width] = packing.table([(k, 1, image) for k, image in self._table[1]])
        return self._packed[packing.width]

    def _leibniz(self, terms: Mapping[int, int], den: int, packing: _Packing) -> tuple[dict[int, int], int, _Packing]:
        """D of the ambient polynomial with packed integer numerators terms over den, in the same form.

        terms first move to double the width while the images do not fit.
        """
        table = self._packed_images(packing)
        while table is None:
            terms, packing = packing.widen(terms)
            table = self._packed_images(packing)
        mask = packing.mask
        out: dict[int, int] = {}
        get = out.get
        for key, c in terms.items():
            for shift, _, image in table:
                power = key >> shift & mask
                if not power:
                    continue
                c_k = c * power
                for move, m in image:
                    new = key + move
                    v = get(new, 0) + c_k * m
                    if v:
                        out[new] = v
                    else:
                        del out[new]
        return out, den * self._table[0], packing

    def _formal_apply(self, p: MultiPoly) -> MultiPoly:
        """Extend through the Leibniz rule on the ambient polynomial ring (unreduced)."""
        out, den, packing = self._leibniz(*_packed(p))
        return _from_terms(self.ring.varset, _unpacked(out, packing), den)

    def _step(self, terms: Mapping[int, int], den: int, packing: _Packing) -> tuple[dict[int, int], int, _Packing]:
        """One application of D to a canonical packed integer term map over den.

        The Leibniz pass, then the ring's rewrite loop, which moves the map to
        double the width when a guard bit is set before a pass, so no field
        carries; the result is the canonical map of D(a) in the packing the
        loop leaves (never narrower), with clear guard bits, over a
        denominator with no factor common to all of its numerators.
        """
        out, den, packing, _ = self.ring._rewrite(*self._leibniz(terms, den, packing), "s_first")
        if den != 1:
            g = gcd(den, *out.values())
            if g != 1:
                den //= g
                out = {k: v // g for k, v in out.items()}
        return out, den, packing

    def _integer_terms(self, a: QuotElem) -> tuple[dict[int, int], int, _Packing]:
        """a's representative, packed, as integer numerators over one denominator."""
        if a.ring != self.ring:
            raise ValueError("element belongs to a different ring")
        return _packed(a.rep)

    def apply(self, a: QuotElem) -> QuotElem:
        return self.ring._to_elem(*self._step(*self._integer_terms(a)))

    def __call__(self, a: QuotElem) -> QuotElem:
        return self.apply(a)

    def iterate(self, a: QuotElem, k: int) -> QuotElem:
        """The k-fold application D^k(a), converted to an element once."""
        if k < 0:
            raise ValueError("iteration count must be non-negative")
        if not k or a.is_zero():
            return a
        terms, den, packing = self._integer_terms(a)
        for _ in range(k):
            terms, den, packing = self._step(terms, den, packing)
            if not terms:
                break
        return self.ring._to_elem(terms, den, packing)

    def default_budget(self, a: QuotElem) -> int:
        """A safe nilpotency budget from the ambient size of a."""
        if a.is_zero():
            return 1
        total = max(sum(exps) for exps in a.rep.nums)
        return max(self.ring.weights) * total + 1

    def degree(self, a: QuotElem, bound: int | None = None) -> int | None:
        """min{ i : D^(i+1)(a) = 0 }, or None for a = 0 (minus infinity).

        The orbit a, D(a), D^2(a), ... stays a packed integer term map over
        one denominator (see _step), widened only when a guard bit is set,
        and stops at the empty map; no exponent tuple and no element is
        built unless the budget runs out.  Raises BudgetExceededError when
        D^(bound+1)(a) is still nonzero, which for a locally nilpotent
        derivation means the bound was too small; the message shows
        D^(bound+1)(a) exactly.
        """
        terms, den, packing = self._integer_terms(a)
        if not terms:
            return None
        if bound is None:
            bound = self.default_budget(a)
        for i in range(bound + 1):
            terms, den, packing = self._step(terms, den, packing)
            if not terms:
                return i
        raise BudgetExceededError(
            f"derivation budget {bound} exceeded on {a}; still nonzero: {self.ring._to_elem(terms, den, packing)}"
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
