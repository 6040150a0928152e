"""Quotient rings of two Danielewski-type families, with canonical forms.

Two presentations are supported, over the rationals:

* danielewski:  k[X,S,Y] / (X^n*Y - P(X,S))
* full:         k[X,S,Y,Z] / (X^n*Y - P(X,S), Q(X,Y) - X^e*Z - S)

with P = S^d + f_{d-1}(X)*S^{d-1} + ... + f_0(X) monic of degree d >= 2 in S,
and Q = Y^m + g_{m-1}(X)*Y^{m-1} + ... + g_0(X) monic of degree m >= 2 in Y.
The full family requires (n, e) != (1, 0).

Every residue class has a unique representative whose monomials satisfy
s-exponent < d and (full family) y-exponent < m; x (and z, and the cylinder
variable t) are unconstrained.  normal_form computes it by rewriting

    S^d -> X^n*Y - sum_i f_i(X)*S^i        (s-rule)
    Y^m -> S + X^e*Z - sum_j g_j(X)*Y^j    (y-rule, full family)

until no monomial is reducible.  Each pass rewrites all reducible monomials
once; the per-monomial measure ((0,1,d,m*d)-weight, then s-exp + y-exp) drops
strictly on every applied rule.  The measure is linear in the exponents, so
this is checked once per ring, rule head against each tail term, when the
rule tails are built.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .polynomials import (
    MultiPoly,
    ParseError,
    VarSet,
    WeightFunction,
    parse_poly,
    power_by_squaring,
)

_X_ONLY = VarSet(("X",))

CoeffLike = Union[str, MultiPoly]


def _coerce_x_poly(c: CoeffLike, what: str) -> MultiPoly:
    if isinstance(c, str):
        c = parse_poly(c, _X_ONLY)
    if not isinstance(c, MultiPoly):
        raise ValueError(f"{what} must be a polynomial in X or its text form")
    if c.varset != _X_ONLY:
        if any(nm != "X" and c.degree_in(nm) > 0 for nm in c.varset.names):
            raise ValueError(f"{what} must involve only X, got {c}")
        c = MultiPoly(
            _X_ONLY,
            {(e[c.varset.index("X")],): v for e, v in c.terms.items()},
        )
    return c


class RingPresentation:
    """One ring of either family, plus the optional adjoined cylinder variable T.

    p_coeffs is the list (f_0, ..., f_{d-1}) of non-top coefficients of P;
    its length fixes d.  q_coeffs likewise fixes m (empty for danielewski).
    """

    __slots__ = (
        "family", "n", "e", "p_coeffs", "q_coeffs", "cylinder", "varset", "d", "m", "_tails",
    )

    def __init__(
        self,
        family: str,
        n: int,
        e: int,
        p_coeffs: Sequence[CoeffLike],
        q_coeffs: Sequence[CoeffLike] = (),
        cylinder: bool = False,
    ):
        if family not in ("full", "danielewski"):
            raise ValueError(f"unknown family {family!r}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"e must be an integer >= 0, got {e!r}")
        self.family = family
        self.n = n
        self.e = e
        self.cylinder = bool(cylinder)
        self.p_coeffs = tuple(_coerce_x_poly(c, "P coefficient") for c in p_coeffs)
        self.q_coeffs = tuple(_coerce_x_poly(c, "Q coefficient") for c in q_coeffs)
        self.d = len(self.p_coeffs)
        self.m = len(self.q_coeffs)
        if self.d < 2:
            raise ValueError(f"P must have degree >= 2 in S (got d={self.d})")
        if family == "full":
            if self.m < 2:
                raise ValueError(f"Q must have degree >= 2 in Y (got m={self.m})")
            if (n, e) == (1, 0):
                raise ValueError("the full family excludes (n, e) = (1, 0)")
            names = ["X", "S", "Y", "Z"]
        else:
            if self.q_coeffs:
                raise ValueError("danielewski rings have no Q")
            if e != 0:
                raise ValueError("danielewski rings have no twist exponent e")
            names = ["X", "S", "Y"]
        if self.cylinder:
            names.append("T")
        self.varset = VarSet(names)
        self._tails: tuple[MultiPoly, MultiPoly | None] | None = None

    # -------------------------------------------------------------- factories

    @classmethod
    def full(
        cls,
        n: int,
        e: int,
        p_coeffs: Sequence[CoeffLike],
        q_coeffs: Sequence[CoeffLike],
        cylinder: bool = False,
    ) -> RingPresentation:
        return cls("full", n, e, p_coeffs, q_coeffs, cylinder)

    @classmethod
    def danielewski(cls, n: int, p_coeffs: Sequence[CoeffLike], cylinder: bool = False) -> RingPresentation:
        return cls("danielewski", n, 0, p_coeffs, (), cylinder)

    def with_cylinder(self) -> RingPresentation:
        """The same presentation with the free variable T adjoined."""
        return RingPresentation(self.family, self.n, self.e, self.p_coeffs, self.q_coeffs, True)

    def base(self) -> RingPresentation:
        """The presentation without the cylinder variable."""
        return RingPresentation(self.family, self.n, self.e, self.p_coeffs, self.q_coeffs, False)

    # ------------------------------------------------------------- structure

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingPresentation)
            and self.family == other.family
            and (self.n, self.e, self.cylinder) == (other.n, other.e, other.cylinder)
            and self.p_coeffs == other.p_coeffs
            and self.q_coeffs == other.q_coeffs
        )

    def __hash__(self) -> int:
        return hash((self.family, self.n, self.e, self.cylinder, self.p_coeffs, self.q_coeffs))

    def fingerprint(self) -> str:
        bits = [f"family={self.family}", f"n={self.n}"]
        if self.family == "full":
            bits.append(f"e={self.e}")
        bits.append(f"d={self.d}")
        if self.family == "full":
            bits.append(f"m={self.m}")
        bits.append("P=[" + ", ".join(str(c) for c in self.p_coeffs) + "]")
        if self.family == "full":
            bits.append("Q=[" + ", ".join(str(c) for c in self.q_coeffs) + "]")
        if self.cylinder:
            bits.append("cylinder")
        return "(" + "; ".join(bits) + ")"

    def __repr__(self) -> str:
        return f"RingPresentation{self.fingerprint()}"

    def p_poly(self) -> MultiPoly:
        """P(X, S) = S^d + sum f_i(X) S^i over this ring's varset."""
        vs = self.varset
        out = MultiPoly.variable(vs, "S") ** self.d
        for i, f in enumerate(self.p_coeffs):
            out = out + f.rename(vs) * (MultiPoly.variable(vs, "S") ** i)
        return out

    def q_poly(self) -> MultiPoly:
        """Q(X, Y) = Y^m + sum g_j(X) Y^j over this ring's varset (full only)."""
        if self.family != "full":
            raise ValueError("danielewski rings have no Q")
        vs = self.varset
        out = MultiPoly.variable(vs, "Y") ** self.m
        for j, g in enumerate(self.q_coeffs):
            out = out + g.rename(vs) * (MultiPoly.variable(vs, "Y") ** j)
        return out

    def relation_polys(self) -> list[MultiPoly]:
        """The defining relations in the presentation's ambient variables."""
        vs = self.varset
        x = MultiPoly.variable(vs, "X")
        y = MultiPoly.variable(vs, "Y")
        first = x ** self.n * y - self.p_poly()
        if self.family == "danielewski":
            return [first]
        s = MultiPoly.variable(vs, "S")
        z = MultiPoly.variable(vs, "Z")
        second = self.q_poly() - x ** self.e * z - s
        return [first, second]

    def eliminated_relation(self) -> MultiPoly:
        """X^n*Y - P(X, Q(X,Y) - X^e*Z): the one relation after S is eliminated.

        Lives over this ring's varset but involves only X, Y, Z (and never T).
        """
        if self.family != "full":
            raise ValueError("only the full family eliminates S")
        vs = self.varset
        x = MultiPoly.variable(vs, "X")
        y = MultiPoly.variable(vs, "Y")
        z = MultiPoly.variable(vs, "Z")
        s_image = self.q_poly() - x ** self.e * z
        images = {nm: MultiPoly.variable(vs, nm) for nm in vs.names}
        images["S"] = s_image
        return x ** self.n * y - self.p_poly().substitute(images)

    def degree_weights(self) -> WeightFunction:
        """The filtration weight of each ambient variable (x, t weigh 0)."""
        w = {"X": 0, "S": 1, "Y": self.d, "T": 0}
        if self.family == "full":
            w["Z"] = self.m * self.d
        return WeightFunction(self.varset, [w[nm] for nm in self.varset.names])

    def monomial_degree(self, exps: Sequence[int]) -> int:
        """Filtration degree of one stored monomial: s + d*y (+ m*d*z)."""
        exps = tuple(exps)
        if len(exps) != len(self.varset):
            raise ValueError(f"expected {len(self.varset)} exponents, got {exps}")
        deg = exps[1] + self.d * exps[2]
        if self.family == "full":
            deg += self.m * self.d * exps[3]
        return deg

    # ----------------------------------------------------------- normal form

    def _measure(self, exps: Sequence[int]) -> tuple[int, int]:
        """The rewrite termination measure of a monomial (compared as a pair)."""
        return (self.monomial_degree(exps), exps[1] + exps[2])

    def _check_rule_drops(self, head: tuple[int, ...], tail: MultiPoly) -> None:
        """Raise unless every term of tail has a smaller measure than head.

        Rewriting base*head to base*tail shifts both measures by the measure
        of base, so this one check covers every application of the rule.
        """
        bound = self._measure(head)
        for texps in tail.terms:
            if not self._measure(texps) < bound:
                raise RuntimeError(
                    f"rewrite rule {head} -> {tail} does not drop the termination "
                    f"measure at {texps}"
                )

    def _rule_tails(self) -> tuple[MultiPoly, MultiPoly | None]:
        """Right-hand sides of the two rewrite rules, over the ring varset.

        Built, and checked against the termination measure, once per ring.
        """
        if self._tails is None:
            self._tails = self._build_rule_tails()
        return self._tails

    def _build_rule_tails(self) -> tuple[MultiPoly, MultiPoly | None]:
        vs = self.varset
        x = MultiPoly.variable(vs, "X")
        y = MultiPoly.variable(vs, "Y")
        s = MultiPoly.variable(vs, "S")
        s_rhs = x ** self.n * y
        for i, f in enumerate(self.p_coeffs):
            s_rhs = s_rhs - f.rename(vs) * s ** i
        self._check_rule_drops(self._head("S", self.d), s_rhs)
        if self.family != "full":
            return s_rhs, None
        z = MultiPoly.variable(vs, "Z")
        y_rhs = s + x ** self.e * z
        for j, g in enumerate(self.q_coeffs):
            y_rhs = y_rhs - g.rename(vs) * y ** j
        self._check_rule_drops(self._head("Y", self.m), y_rhs)
        return s_rhs, y_rhs

    def _head(self, name: str, power: int) -> tuple[int, ...]:
        """Exponents of the rule head name^power."""
        exps = [0] * len(self.varset)
        exps[self.varset.index(name)] = power
        return tuple(exps)

    def normal_form(
        self,
        p: MultiPoly,
        strategy: str = "s_first",
        with_cofactors: bool = False,
    ):
        """Reduce an ambient polynomial to the canonical representative.

        Returns a QuotElem, or (QuotElem, cofactors) when with_cofactors is
        set; cofactors is the pair (A, B) with  p = rep + A*rel1 + B*rel2
        exactly (B is None for the danielewski family).
        """
        if p.varset != self.varset:
            raise ValueError(f"polynomial varset {p.varset!r} does not match ring {self.varset!r}")
        if strategy not in ("s_first", "y_first"):
            raise ValueError(f"unknown strategy {strategy!r}")
        s_rhs, y_rhs = self._rule_tails()
        d, m = self.d, self.m
        s_ix, y_ix = 1, 2
        is_full = self.family == "full"
        track = with_cofactors
        cof_a: dict[tuple[int, ...], Fraction] = {}
        cof_b: dict[tuple[int, ...], Fraction] = {}

        def add_into(acc: dict, key: tuple[int, ...], c: Fraction) -> None:
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)

        current = dict(p.terms)
        while True:
            todo = []
            for exps in current:
                use_s = exps[s_ix] >= d
                use_y = is_full and exps[y_ix] >= m
                if not (use_s or use_y):
                    continue
                if use_s and use_y:
                    rule = "s" if strategy == "s_first" else "y"
                elif use_s:
                    rule = "s"
                else:
                    rule = "y"
                todo.append((exps, rule))
            if not todo:
                break
            for exps, rule in todo:
                # an earlier rewrite in this pass may have cancelled the term
                c = current.pop(exps, None)
                if c is None:
                    continue
                base = list(exps)
                if rule == "s":
                    base[s_ix] -= d
                    tail = s_rhs
                else:
                    base[y_ix] -= m
                    tail = y_rhs
                for texps, tc in tail.terms.items():
                    key = tuple(b + t for b, t in zip(base, texps))
                    add_into(current, key, c * tc)
                if track:
                    # replacing base*S^d by base*s_rhs adds base*rel1 (and the
                    # y-rule subtracts base*rel2), so the cofactors absorb it
                    if rule == "s":
                        add_into(cof_a, tuple(base), -c)
                    else:
                        add_into(cof_b, tuple(base), c)
        rep = MultiPoly.zero(self.varset)
        rep.terms = current
        elem = QuotElem(self, rep, _trusted=True)
        if not with_cofactors:
            return elem
        a = MultiPoly.zero(self.varset)
        a.terms = cof_a
        if not is_full:
            return elem, (a, None)
        b = MultiPoly.zero(self.varset)
        b.terms = cof_b
        return elem, (a, b)

    # ------------------------------------------------------------- elements

    def element(self, source: str | MultiPoly | int | Fraction) -> QuotElem:
        """Coerce text, an ambient polynomial, or a scalar into the quotient."""
        if isinstance(source, str):
            source = parse_poly(source, self.varset)
        elif isinstance(source, (int, Fraction)):
            source = MultiPoly.constant(self.varset, source)
        return self.normal_form(source)

    def zero(self) -> QuotElem:
        return QuotElem(self, MultiPoly.zero(self.varset), _trusted=True)

    def one(self) -> QuotElem:
        return self.element(1)

    def generator(self, name: str) -> QuotElem:
        return self.element(MultiPoly.variable(self.varset, name))

    def generators(self) -> dict[str, QuotElem]:
        return {nm: self.generator(nm) for nm in self.varset.names}

    # ------------------------------------------------------------------ JSON

    def to_json_dict(self) -> dict:
        out: dict = {
            "family": self.family,
            "n": self.n,
        }
        if self.family == "full":
            out["e"] = self.e
        out["P"] = [str(c) for c in self.p_coeffs]
        if self.family == "full":
            out["Q"] = [str(c) for c in self.q_coeffs]
        if self.cylinder:
            out["cylinder"] = True
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> RingPresentation:
        try:
            family = data["family"]
            n = data["n"]
            p = data["P"]
        except KeyError as missing:
            raise ValueError(f"ring JSON lacks key {missing}") from None
        cylinder = bool(data.get("cylinder", False))
        if family == "full":
            if "Q" not in data:
                raise ValueError("ring JSON lacks key 'Q'")
            return cls.full(n, data.get("e", 0), p, data["Q"], cylinder)
        if family == "danielewski":
            return cls.danielewski(n, p, cylinder)
        raise ValueError(f"unknown family {family!r}")

    @classmethod
    def from_json(cls, text: str) -> RingPresentation:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"bad ring JSON: {err}") from None
        if not isinstance(data, dict):
            raise ValueError("ring JSON must be an object")
        return cls.from_json_dict(data)


def toy_ring(cylinder: bool = False) -> RingPresentation:
    """k[X,Y,Z]/(X^2*Y - (Y^2 - X*Z)^2), presented with S = Y^2 - X*Z.

    The running demonstration surface: full family with n=2, e=1, P=S^2,
    Q=Y^2 (so d = m = 2).
    """
    return RingPresentation.full(2, 1, ["0", "0"], ["0", "0"], cylinder)


class QuotElem:
    """A residue class held as its canonical representative."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: RingPresentation, rep: MultiPoly, _trusted: bool = False):
        self.ring = ring
        if _trusted:
            self.rep = rep
        else:
            self.rep = ring.normal_form(rep).rep

    def _check_ring(self, other: QuotElem) -> None:
        if self.ring != other.ring:
            raise ValueError(
                f"ring mismatch: {self.ring.fingerprint()} vs {other.ring.fingerprint()}"
            )

    def _coerce(self, other: object) -> QuotElem | None:
        if isinstance(other, QuotElem):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return QuotElem(
                self.ring,
                MultiPoly.constant(self.ring.varset, other),
                _trusted=True,
            )
        return None

    def __add__(self, other: object) -> QuotElem:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        # sums of canonical representatives are canonical: reducedness is a
        # per-monomial property
        return QuotElem(self.ring, self.rep + q.rep, _trusted=True)

    __radd__ = __add__

    def __neg__(self) -> QuotElem:
        return QuotElem(self.ring, -self.rep, _trusted=True)

    def __sub__(self, other: object) -> QuotElem:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuotElem(self.ring, self.rep - q.rep, _trusted=True)

    def __rsub__(self, other: object) -> QuotElem:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuotElem(self.ring, q.rep - self.rep, _trusted=True)

    def __mul__(self, other: object) -> QuotElem:
        if isinstance(other, (int, Fraction)):
            return QuotElem(self.ring, self.rep * other, _trusted=True)
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self.ring.normal_form(self.rep * q.rep)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> QuotElem:
        return power_by_squaring(self, k, self.ring.one)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, QuotElem):
            return NotImplemented
        return self.ring == other.ring and self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.ring, self.rep))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def degree(self) -> int | None:
        """Filtration degree: max monomial degree of the representative.

        None encodes the degree of 0 (conventionally minus infinity).
        """
        if self.rep.is_zero():
            return None
        return max(self.ring.monomial_degree(e) for e in self.rep.terms)

    def __str__(self) -> str:
        return str(self.rep)

    def __repr__(self) -> str:
        return f"QuotElem({self.rep})"

    # ------------------------------------------------------------------ JSON

    def to_json_list(self) -> list[dict]:
        keys = ["x", "s", "y"]
        if self.ring.family == "full":
            keys.append("z")
        if self.ring.cylinder:
            keys.append("t")
        out = []
        for exps, c in self.rep.sorted_terms():
            entry = {k: e for k, e in zip(keys, exps)}
            entry["c"] = str(c)
            out.append(entry)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_list(), indent=2)

    @classmethod
    def from_json_list(cls, ring: RingPresentation, data: Iterable[Mapping]) -> QuotElem:
        keys = ["x", "s", "y"]
        if ring.family == "full":
            keys.append("z")
        if ring.cylinder:
            keys.append("t")
        terms: dict[tuple[int, ...], Fraction] = {}
        for entry in data:
            exps = tuple(int(entry.get(k, 0)) for k in keys)
            c = Fraction(str(entry["c"]))
            if c:
                terms[exps] = terms.get(exps, Fraction(0)) + c
        return QuotElem(ring, MultiPoly(ring.varset, terms))

    @classmethod
    def from_json(cls, ring: RingPresentation, text: str) -> QuotElem:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"bad element JSON: {err}") from None
        if not isinstance(data, list):
            raise ValueError("element JSON must be a list of term objects")
        return cls.from_json_list(ring, data)


def evaluate_in_ring(p: MultiPoly, env: Mapping[str, QuotElem]) -> QuotElem:
    """Evaluate an ambient polynomial at quotient-ring arguments.

    p's variables are interpreted through env (every variable occurring in p
    needs a value; all values must share one ring).  Reduction happens after
    every product, so intermediates stay in canonical form.
    """
    rings = {id(v.ring): v.ring for v in env.values()}
    if not rings:
        raise ValueError("empty evaluation environment")
    ring = next(iter(rings.values()))
    for v in env.values():
        if v.ring != ring:
            raise ValueError("evaluation environment mixes rings")
    used = [k for k in range(len(p.varset)) if any(e[k] for e in p.terms)]
    for k in used:
        if p.varset.names[k] not in env:
            raise ValueError(f"no value for variable {p.varset.names[k]!r}")
    pow_cache: dict[tuple[int, int], QuotElem] = {}

    def power(k: int, nexp: int) -> QuotElem:
        key = (k, nexp)
        got = pow_cache.get(key)
        if got is None:
            got = env[p.varset.names[k]] ** nexp
            pow_cache[key] = got
        return got

    total = ring.zero()
    for exps, c in p.terms.items():
        term = ring.element(c)
        for k in used:
            if exps[k]:
                term = term * power(k, exps[k])
        total = total + term
    return total


def basis_monomials(ring: RingPresentation, degree_bound: int) -> list[tuple[int, tuple[int, int, int]]]:
    """All (degree, (l, j, i)) with s^l y^j z^i of filtration degree <= bound.

    Covers one k[x]-module generator each; the x-power factor is free and
    contributes degree 0.  For the danielewski family i is always 0 and the
    y-exponent j is unbounded (up to the degree cap); for the full family
    l < d and j < m.
    """
    if ring.cylinder:
        raise ValueError("basis enumeration applies to the base ring, not its cylinder")
    if degree_bound < 0:
        return []
    d, m = ring.d, ring.m
    out = []
    if ring.family == "full":
        for i in range(degree_bound // (m * d) + 1):
            for j in range(m):
                for l in range(d):
                    deg = l + d * j + m * d * i
                    if deg <= degree_bound:
                        out.append((deg, (l, j, i)))
    else:
        for j in range(degree_bound // d + 1):
            for l in range(d):
                deg = l + d * j
                if deg <= degree_bound:
                    out.append((deg, (l, j, 0)))
    out.sort(key=lambda item: (item[0], item[1]))
    return out
