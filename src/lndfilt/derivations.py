"""Locally nilpotent derivations and the degree function they induce.

A derivation is stored by its images on the ambient generators and is
validated against the defining relations at construction time.  The induced
degree of a ring element a is the least i with D^(i+1)(a) = 0, computed by
honest iteration (this is the oracle that the closed-form degree
bookkeeping is tested against).

One application of D to a canonical representative is one pass over a table
of normal forms, with no rewriting: per head monomial h (a product
of the variables that head the ring's rewrite rules, each below its head
power), nf(D(h)) and nf(h*D(v)) for each other variable v with D(v)
nonzero.  _step_rows proves that these values fix D on canonical
elements.  They are built once per derivation, on its first step, by
_chain_rule and normal_form, as integer numerators over one common
denominator den_T, and packed once per key width as moves: a term's key less
the key of h (and of v).  A step reads h from the key of a term c*x^a by one
mask, adds c*m at key + move for each term of nf(D(h)), and c*e_v*m (e_v the
exponent of v in x^a) at key + move for each term of each nf(h*D(v)); so p =
(1/den) sum c_a x^a goes to D(p) over den*den_T, canonical as it is
built.  Every application runs in one loop, _orbit, which feeds each result
to the next step: apply takes one step, iterate k, and degree steps to the
empty map or its budget, so the orbit a, D(a), D^2(a), ... stays packed from
a's representative to the end, and a result is unpacked only where a caller
asks for an element (apply's result, iterate's last, the budget error's
message).  The loop reads the step table and the packing's fields once, and
again only after a widening.  Guard and restart (the key format of
polynomials.py): before every step the loop tests the guard bits of the
input keys and moves the map to double the width while one is set or the
table does not fit; then every field of key - h - v and every table exponent
is below 2^(width-1), so no sum carries.  The gcd rule: where den_T != 1,
each step multiplies den by den_T and divides the map and den by the gcd of
den and all numerators, so the numbers stay as small as MultiPoly's.  Where
den_T == 1, den never grows and no step divides: each numerator is den times
a coefficient of the orbit, so it carries at most a factor of the input's
den, and _to_elem returns the result in lowest terms.  canonical_derivation
builds its derivation once per ring object and holds it on the ring, so one
step table serves every caller.

One formal derivative, _chain_rule (sum over v of dp/dv * D(v), from
MultiPoly.derivative and products), serves the three callers that work on
ambient polynomials: the relation check in __init__, the step table's
nf(D(h)), and canonical_derivation, which derives the images from the
relations.  Checks independent of the step table: the written-out golden
degrees and images of acceptance #1 and #2, the closed form
(monomial_degree) that degree_consistency compares with, test_leibniz_rule
(D(ab) = a D(b) + b D(a) on products formed in the ring), the closed-form
images in tests/test_derivations.py, and tests/test_leibniz.py, which
compares _formal_apply with a Leibniz rule on exponent tuples and Fractions,
and apply, degree and iterate with the derivative route reduced by
normal_form or, along whole orbits, by a Fraction rewrite loop that shares
no integer code with degree and iterate.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import gcd, lcm
from operator import or_
from typing import Mapping

from .polynomials import MultiPoly, _count, _Packing, _packed
from .rings import QuotElem, RingPresentation


class BudgetExceededError(RuntimeError):
    """Iterating the derivation did not reach zero within the given budget."""


def _chain_rule(p: MultiPoly, images: Mapping[str, MultiPoly]) -> MultiPoly:
    """The sum over variables v of dp/dv * images[v], unreduced; zero images are skipped."""
    total = MultiPoly.zero(p.varset)
    for nm, image in images.items():
        if not image.is_zero():
            total = total + p.derivative(nm) * image
    return total


class Derivation:
    """A k-derivation of one presented ring, given by generator images."""

    __slots__ = ("ring", "images", "_rows", "_packed")

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
        self._rows: tuple | None = None
        self._packed: dict[int, tuple | None] = {}
        for rel in ring.relation_polys():
            residual = ring.normal_form(self._formal_apply(rel))
            if not residual.is_zero():
                raise ValueError(f"images do not define a derivation: relation {rel} maps to {residual}")

    def _formal_apply(self, p: MultiPoly) -> MultiPoly:
        """D of an ambient polynomial by the chain rule (unreduced)."""
        return _chain_rule(p, {nm: img.rep for nm, img in self.images.items()})

    def _step_rows(self) -> tuple[int, int, tuple]:
        """den_T, the largest exponent, and per head monomial h (exps of h, nf(D(h)), ((v, nf(h*D(v))), ...)).

        Why these values fix D on canonical elements.  Call the variables
        that head a rewrite rule (read from ring._rule_heads: s, and y in
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
            heads = ring._rule_heads()
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
                heads = sum(packing.mask << shifts[var] for var in self.ring._rule_heads())
                table = den, heads, entries
            self._packed[packing.width] = table
        return self._packed[packing.width]

    def _orbit(
        self, terms: dict[int, int], den: int, packing: _Packing, limit: int
    ) -> tuple[dict[int, int], int, _Packing, int]:
        """D^i of a canonical packed integer term map over den: (map, den, packing, i).

        The one loop that applies D: it steps until the map is empty or
        limit steps are taken (limit a Python int, so any budget counts), and
        i is the number of steps.  Each step is one pass over the step table
        (module docstring).  The table and the packing's fields are read once
        and again only after a widening: before every step the map moves to
        double the width while a guard bit of its keys is set or the table
        does not fit, so no field carries.  Where den_T != 1 each step divides
        out the gcd of den and all numerators; where den_T == 1 den stays
        fixed, and the caller's _to_elem takes out the common factor.
        """
        steps = 0
        table = None
        while terms and steps < limit:
            if table is None or reduce(or_, terms, 0) & guard:
                table = self._step_table(packing)
                while table is None or reduce(or_, terms, 0) & packing.guard:
                    terms, packing = packing.widen(terms)
                    table = self._step_table(packing)
                den_t, heads, entries = table
                mask, guard = packing.mask, packing.guard
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
            terms = out
            steps += 1
            if den_t != 1:
                den *= den_t
                g = gcd(den, *out.values())
                if g != 1:
                    den //= g
                    terms = {k: v // g for k, v in out.items()}
        return terms, den, packing, steps

    def _integer_terms(self, a: QuotElem, top: int | None = None) -> tuple[dict[int, int], int, _Packing]:
        """a's representative, packed, as integer numerators over one denominator; top as in _packed."""
        if a.ring != self.ring:
            raise ValueError("element belongs to a different ring")
        return _packed(a.rep, top)

    def apply(self, a: QuotElem) -> QuotElem:
        return self.ring._to_elem(*self._orbit(*self._integer_terms(a), 1)[:3])

    def __call__(self, a: QuotElem) -> QuotElem:
        return self.apply(a)

    def iterate(self, a: QuotElem, k: int) -> QuotElem:
        """The k-fold application D^k(a), converted to an element once."""
        _count(k, "iteration count")
        if not k or a.is_zero():
            return a
        terms, den, packing, _ = self._orbit(*self._integer_terms(a), k)
        return self.ring._to_elem(terms, den, packing)

    def default_budget(self, a: QuotElem) -> int:
        """A safe nilpotency budget from the ambient size of a: max weight * total degree + 1."""
        return self._budget(max(map(sum, a.rep.nums), default=0))

    def _budget(self, total: int) -> int:
        """default_budget of an element whose largest total degree is total (0 for zero)."""
        return max(self.ring.weights) * total + 1

    def degree(self, a: QuotElem, bound: int | None = None) -> int | None:
        """min{ i : D^(i+1)(a) = 0 }, or None for a = 0 (minus infinity).

        One _orbit run of at most bound + 1 steps, from a's packed
        representative to the empty map; no exponent tuple and no element is
        built unless the budget runs out.  Raises BudgetExceededError when
        D^(bound+1)(a) is still nonzero, which for a locally nilpotent
        derivation means the bound was too small; the message shows
        D^(bound+1)(a) exactly.  A bound that is not an int >= 0 is refused
        with ValueError before any step.
        """
        # one walk over a's exponents: its largest total degree gives the
        # default budget, and bounds every exponent for the packing
        total = max(map(sum, a.rep.nums), default=0)
        bound = self._budget(total) if bound is None else _count(bound, "degree bound")
        terms, den, packing = self._integer_terms(a, total)
        if not terms:
            return None
        terms, den, packing, steps = self._orbit(terms, den, packing, bound + 1)
        if not terms:
            return steps - 1
        raise BudgetExceededError(
            f"derivation budget {bound} exceeded on {a}; still nonzero: {self.ring._to_elem(terms, den, packing)}"
        )


def canonical_derivation(ring: RingPresentation) -> Derivation:
    """The distinguished locally nilpotent derivation of a presented ring.

    Sends x (and the cylinder variable t) to 0 and s to x^(n+e); the
    relations force the rest.  Relation k brings in variable k + 2 of the
    varset (y, then z) with coefficient c = d(rel_k)/dv, a signed power of
    x, so D(rel_k) = 0 gives D(v) = -(chain rule of rel_k at the images
    found so far, D(v) still 0) / c, an exact division:

        X^n*Y - P = 0:          D(Y) = P'(S)*X^(n+e) / X^n = X^e*P'(S)
        Q - X^e*Z - S = 0:      D(Z) = (Q'(Y)*D(Y) - X^(n+e)) / X^e = Q'(Y)*P'(S) - X^n

    On danielewski rings (e = 0, one relation) this is x^n*d/dS +
    P'(S)*d/dY.  Built once per ring object and held on it, so every caller
    on one ring shares its step table.
    """
    if ring._derivation is None:
        vs = ring.varset
        images = {nm: MultiPoly.zero(vs) for nm in vs.names}
        images["S"] = MultiPoly.variable(vs, "X") ** (ring.n + ring.e)
        for k, rel in enumerate(ring.relation_polys()):
            v = vs.names[k + 2]
            images[v] = -_chain_rule(rel, images).divide_exact(rel.derivative(v))
        ring._derivation = Derivation(ring, {nm: ring.element(image) for nm, image in images.items()})
    return ring._derivation
