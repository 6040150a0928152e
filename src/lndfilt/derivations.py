"""Locally nilpotent derivations and the degree function they induce.

A derivation is stored by its images on the ambient generators and is
validated against the defining relations at construction time.  The induced
degree of a ring element a is the least i with D^(i+1)(a) = 0, computed by
honest iteration (this is the oracle that the closed-form degree
bookkeeping is tested against).

One application of D to a canonical representative is one pass over a table
of normal forms (_step), with no rewriting: per head monomial h (a product
of the variables that head the ring's rewrite rules, each below its head
power), nf(D(h)) and nf(h*D(v)) for each other variable v with D(v)
nonzero.  _step_rows proves that these values fix D on canonical
elements.  They are built once per derivation, on its first step, by the
Leibniz pass below and normal_form, as integer numerators over one common
denominator den_T, and packed once per key width as moves: a term's key less
the key of h (and of v).  A step reads h from the key of a term c*x^a by one
mask, adds c*m at key + move for each term of nf(D(h)), and c*e_v*m (e_v the
exponent of v in x^a) at key + move for each term of each nf(h*D(v)); so p =
(1/den) sum c_a x^a goes to D(p) over den*den_T, canonical as it is
built.  degree and iterate feed each result to the next step, so the orbit a,
D(a), D^2(a), ... stays packed from a's representative to the empty map, and
a result is unpacked only where a caller asks for an element (apply's
result, iterate's last, the budget error's message).  Guard and restart (the
key format of polynomials.py): a step first tests the guard bits of its
input keys and moves the map to double the width while one is set or the
table does not fit; then every field of key - h - v and every table exponent
is below 2^(width-1), so no sum carries.  After a step with den != 1 the map
and den are divided by the gcd of den and all numerators, the lowest terms
that MultiPoly keeps.  canonical_derivation builds its derivation once per
ring object and holds it on the ring, so one step table serves every caller.

The Leibniz pass (_leibniz, _formal_apply) differentiates an ambient
polynomial in one integer pass on packed keys: each nonzero generator image
is stored as integer numerators over one denominator den_D, and a term
n_a*x^a adds n_a*a_k*m_u at key a - x_k + u for every k with a_k > 0 and
every image term m_u*x^u.  It validates the images against the relations at
construction and builds the step table.  Checks independent of the step
table: the written-out golden degrees and images of acceptance #1 and #2,
the closed form (monomial_degree) that degree_consistency compares with,
test_leibniz_rule (D(ab) = a D(b) + b D(a) on products formed in the ring),
and tests/test_leibniz.py, which compares apply, degree and iterate with the
MultiPoly derivative route, sum_k dp/dx_k * D(x_k), reduced by normal_form
or, along whole orbits, by a Fraction rewrite loop that shares no integer
code with degree and iterate.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import gcd, lcm
from operator import or_
from typing import Mapping

from .polynomials import MultiPoly, _Packing, _from_terms, _packed, _unpacked
from .rings import QuotElem, RingPresentation


class BudgetExceededError(RuntimeError):
    """Iterating the derivation did not reach zero within the given budget."""


class Derivation:
    """A k-derivation of one presented ring, given by generator images."""

    __slots__ = ("ring", "images", "_table", "_rows", "_packed")

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
        self._rows: tuple | None = None
        self._packed: dict[int, tuple | None] = {}
        for rel in ring.relation_polys():
            residual = self._formal_apply(rel)
            if not ring.normal_form(residual).is_zero():
                raise ValueError(
                    f"images do not define a derivation: relation {rel} maps to "
                    f"{ring.normal_form(residual)}"
                )

    def _leibniz(self, terms: Mapping[int, int], den: int, packing: _Packing) -> tuple[dict[int, int], int, _Packing]:
        """D of the ambient polynomial with packed integer numerators terms over den, unreduced, in the same form.

        terms first move to double the width while the images do not fit.
        """
        rows = [(k, 1, image) for k, image in self._table[1]]
        table = packing.table(rows)
        while table is None:
            terms, packing = packing.widen(terms)
            table = packing.table(rows)
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

    def _step_rows(self) -> tuple[int, int, tuple]:
        """den_T, the largest exponent, and per head monomial h (exps of h, nf(D(h)), ((v, nf(h*D(v))), ...)).

        Why these values fix D on canonical elements.  Call the variables
        that head a rewrite rule (read from ring._rule_tails: s, and y in
        the full family) the head variables and the others (x, z, t, and y
        in the danielewski family) free.  Each canonical monomial splits as
        f*h, h a head monomial, every head exponent below its head power,
        and f a monomial in the free variables.  A rule reduces a monomial
        only through a head exponent, and f changes none, so f times a
        canonical polynomial is canonical, and nf(f*g) = f*nf(g) for every
        ambient g.  D is k-linear, D(f*h) = f*D(h) + h*D(f), and D(f) = sum
        over free v of e_v*(f/v)*D(v), e_v the exponent of v in f
        (Freudenburg, Algebraic Theory of Locally Nilpotent Derivations, 2nd
        ed. 2017).  Hence

            nf(D(f*h)) = f*nf(D(h)) + sum over free v with D(v) != 0 of e_v*(f/v)*nf(h*D(v)).

        v runs over those free variables, and every value is a tuple of
        (exps, numerator) over den_T.  Built once, on the first step.
        """
        if self._rows is None:
            ring, vs = self.ring, self.ring.varset
            heads = {var: power for var, power, *_ in ring._rule_tails()["s_first"][1]}
            free = [(k, img.rep) for k, img in enumerate(self.images.values()) if k not in heads and not img.is_zero()]
            built = []
            for exps in product(*[range(heads.get(k, 1)) for k in range(len(vs))]):
                h = MultiPoly.monomial(vs, exps)
                values = [ring.normal_form(self._formal_apply(h)).rep]
                values += [ring.normal_form(h * image).rep for _, image in free]
                built.append((exps, values))
            den = lcm(*[p.den for _, values in built for p in values])
            top = max(e for h, values in built for u in (h, *[u for p in values for u in p.nums]) for e in u)

            def scaled(p: MultiPoly) -> tuple:
                return tuple((u, n * (den // p.den)) for u, n in p.nums.items())

            self._rows = den, top, tuple(
                (h, scaled(values[0]), tuple((v, scaled(p)) for (v, _), p in zip(free, values[1:])))
                for h, values in built
            )
        return self._rows

    def _step_table(self, packing: _Packing) -> tuple | None:
        """The step table at one packing, built once per width.

        (den_T, mask of the head fields, {key of h: (moves of nf(D(h)),
        ((shift of v, moves of nf(h*D(v))), ...))}), a move being a term's
        key less the key of h (and of v) paired with the term's numerator;
        None when an exponent does not fit.
        """
        if packing.width not in self._packed:
            den, top, rows = self._step_rows()
            table = None
            if not top >> (packing.width - 1):
                pack, shifts = packing.pack, packing.shifts
                entries = {}
                for h, image, free in rows:
                    base = pack(h)
                    entries[base] = (
                        tuple((pack(u) - base, n) for u, n in image),
                        tuple(
                            (shifts[v], tuple((pack(u) - base - (1 << shifts[v]), n) for u, n in terms))
                            for v, terms in free
                        ),
                    )
                heads = sum(packing.mask << shifts[rule[0]] for rule in self.ring._rule_tails()["s_first"][1])
                table = den, heads, entries
            self._packed[packing.width] = table
        return self._packed[packing.width]

    def _step(self, terms: Mapping[int, int], den: int, packing: _Packing) -> tuple[dict[int, int], int, _Packing]:
        """One application of D to a canonical packed integer term map over den.

        One pass over the step table (module docstring), after moving the
        map to double the width while a guard bit of its keys is set or the
        table does not fit, so no field carries.  The result is the
        canonical map of D(a) in that packing, over a denominator with no
        factor common to all of its numerators; its guard bits may be set,
        and the next step tests them.
        """
        table = self._step_table(packing)
        while table is None or reduce(or_, terms, 0) & packing.guard:
            terms, packing = packing.widen(terms)
            table = self._step_table(packing)
        den_t, heads, entries = table
        mask = packing.mask
        out: dict[int, int] = {}
        get = out.get
        for key, c in terms.items():
            image, free = entries[key & heads]
            for move, m in image:
                new = key + move
                v = get(new, 0) + c * m
                if v:
                    out[new] = v
                else:
                    del out[new]
            for shift, moves in free:
                power = key >> shift & mask
                if not power:
                    continue
                c_v = c * power
                for move, m in moves:
                    new = key + move
                    v = get(new, 0) + c_v * m
                    if v:
                        out[new] = v
                    else:
                        del out[new]
        den *= den_t
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
    T, when present, is sent to 0.  Built once per ring object and held on
    it, so every caller on one ring shares its step table.
    """
    if ring._derivation is None:
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
        ring._derivation = Derivation(ring, images)
    return ring._derivation
