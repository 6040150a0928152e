"""A two-parameter family of filtration-preserving ring automorphisms.

For a full-family ring whose Q is the pure power Y^m and whose f_{d-1}
vanishes, the assignments

    x -> lam*x
    s -> mu*s + x^(n+e)*a(x)
    y -> (mu^d/lam^n)*y + W
    z -> (mu^(d*m)/lam^(n*m+e))*z + N / (lam^e*x^e)

define a ring automorphism whenever

    mu^(d*m-1) == lam^(n*m)   and
    f_{d-i}(lam*X) == mu^i * f_{d-i}(X)  modulo X^(n+e)   for i = 2..d,

where a(x) is an arbitrary polynomial,

    W = (P(lam*x, mu*s + x^(n+e)*a(x)) - mu^d * P(x, s)) / (lam^n * x^n),
    N = ((mu^d/lam^n)*y + W)^m - (mu^(d*m)/lam^(n*m))*y^m - x^(n+e)*a(x).

Both divisions are exact precisely under the stated congruences; build_auto
performs them as exact polynomial divisions and fails loudly otherwise.

verify_auto certifies such a map phi with its inverse psi.  Its independent
entries are phi's relation residuals, the degrees of phi's images, and both
composites psi.phi and phi.psi on X and S; the composites' entries on Y and Z
are derived from those (the lemma in verify_auto's docstring), and are
computed only when the lemma's premise fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .checks import CheckReport
from .derivations import canonical_derivation
from .polynomials import (
    Document,
    MultiPoly,
    ReadableDocument,
    images_json,
    parse_poly,
    read_object,
    read_rational,
    substitute_all,
)
from .rings import _X_ONLY, QuotElem, RingPresentation, evaluate_in_ring

_X = MultiPoly.variable(_X_ONLY, "X")
# verify_auto computes the inverse on _FIXED and derives it on _DERIVED
_FIXED, _DERIVED = ("X", "S"), ("Y", "Z")


def _coerce_scalar(value: int | str | Fraction, what: str) -> Fraction:
    if not isinstance(value, Fraction):
        value = read_rational(value, what)
    if value == 0:
        raise ValueError(f"{what} must be a nonzero rational")
    return value


@dataclass(frozen=True)
class AutParams(ReadableDocument):
    """(lam, mu, a): the scaling pair and the free shift polynomial a(X)."""

    document = "parameter"

    lam: Fraction
    mu: Fraction
    a: MultiPoly

    @classmethod
    def make(cls, lam: int | str | Fraction, mu: int | str | Fraction, a: str | MultiPoly = "0") -> AutParams:
        if isinstance(a, str):
            a = parse_poly(a, _X_ONLY)
        if a.varset != _X_ONLY:
            raise ValueError("the shift polynomial must be univariate in X")
        return cls(_coerce_scalar(lam, "lambda"), _coerce_scalar(mu, "mu"), a)

    def to_json_dict(self) -> dict:
        return {"lambda": str(self.lam), "mu": str(self.mu), "a": str(self.a)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> AutParams:
        """Strict: lambda and mu are JSON integers or rational strings, a is a string."""
        read_object(data, cls.document, ("lambda", "mu"), ("a",))
        for key in ("lambda", "mu"):
            if isinstance(data[key], bool) or not isinstance(data[key], (int, str)):
                raise ValueError(
                    f"parameter {key!r} is {data[key]!r}, which is not an exact rational; "
                    'write it as an integer or a string such as "1/2"'
                )
        a = data.get("a", "0")
        if not isinstance(a, str):
            raise ValueError(f"parameter 'a' is {a!r}; write the polynomial in X as a string")
        return cls.make(data["lambda"], data["mu"], a)


def _require_normalized(ring: RingPresentation) -> None:
    if ring.family != "full":
        raise ValueError("the automorphism family lives on the full family")
    if ring.cylinder:
        raise ValueError("automorphisms act on the base ring, not its cylinder")
    if any(not g.is_zero() for g in ring.q_coeffs):
        raise ValueError("the automorphism family needs Q = Y^m (all g_j = 0)")
    if not ring.p_coeffs[ring.d - 1].is_zero():
        raise ValueError("the automorphism family needs f_{d-1} = 0")


def check_params(ring: RingPresentation, params: AutParams) -> list[str]:
    """Violated constraints (empty list when the parameters are admissible)."""
    _require_normalized(ring)
    n, e, d, m = ring.n, ring.e, ring.d, ring.m
    violations: list[str] = []
    if params.mu ** (d * m - 1) != params.lam ** (n * m):
        violations.append(
            f"mu^(d*m-1) = {params.mu ** (d * m - 1)} differs from "
            f"lam^(n*m) = {params.lam ** (n * m)}"
        )
    # f_{d-i} for i = 2..d, all moved by X -> lam*X in one call
    coeffs = [ring.p_coeffs[d - i] for i in range(2, d + 1)]
    shifted = substitute_all(coeffs, {"X": params.lam * _X})
    for i, f, moved in zip(range(2, d + 1), coeffs, shifted):
        residual = moved - params.mu ** i * f
        if any(exps[0] < n + e for exps in residual.nums):
            violations.append(
                f"f_{d - i}(lam*X) - mu^{i}*f_{d - i}(X) = {residual} "
                f"is nonzero modulo X^{n + e}"
            )
    return violations


class RingAutomorphism(Document):
    """A ring automorphism stored by its generator images."""

    __slots__ = ("ring", "params", "images")

    def __init__(self, ring: RingPresentation, params: AutParams, images: dict[str, QuotElem]):
        self.ring = ring
        self.params = params
        self.images = images

    def apply(self, a: QuotElem) -> QuotElem:
        if a.ring != self.ring:
            raise ValueError("element belongs to a different ring")
        return evaluate_in_ring(a.rep, self.images)

    def __call__(self, a: QuotElem) -> QuotElem:
        return self.apply(a)

    def compose(self, inner: RingAutomorphism) -> RingAutomorphism:
        """self after inner, with the matching composed parameters."""
        if inner.ring != self.ring:
            raise ValueError("cannot compose automorphisms of different rings")
        params = compose_params(self.ring, self.params, inner.params)
        return RingAutomorphism(self.ring, params, self._images_after(inner))

    def _images_after(self, inner: RingAutomorphism) -> dict[str, QuotElem]:
        """The generator images of self after inner, from one substitute_all call."""
        images = substitute_all([img.rep for img in inner.images.values()], self.images)
        return dict(zip(inner.images, images))

    def to_json_dict(self) -> dict:
        return images_json(self.ring.varset, self.images)


def build_auto(ring: RingPresentation, params: AutParams) -> RingAutomorphism:
    """Materialize the automorphism; raises on inadmissible parameters."""
    violations = check_params(ring, params)
    if violations:
        raise ValueError("; ".join(violations))
    n, e, d, m = ring.n, ring.e, ring.d, ring.m
    lam, mu = params.lam, params.mu
    vs = ring.varset
    x = MultiPoly.variable(vs, "X")
    s = MultiPoly.variable(vs, "S")
    y = MultiPoly.variable(vs, "Y")
    z = MultiPoly.variable(vs, "Z")
    a_here = params.a.rename(vs)
    s_image = mu * s + x ** (n + e) * a_here

    p = ring.p_poly()
    shifted_p = p.substitute({"X": lam * x, "S": s_image})
    w = (shifted_p - mu ** d * p).divide_exact(lam ** n * x ** n)
    c = mu ** d / lam ** n
    y_image = c * y + w

    numerator = y_image ** m - c ** m * y ** m - x ** (n + e) * a_here
    if e:
        tail = numerator.divide_exact(Fraction(lam) ** e * x ** e)
    else:
        tail = numerator
    z_image = mu ** (d * m) / lam ** (n * m + e) * z + tail

    images = {
        "X": ring.element(lam * x),
        "S": ring.element(s_image),
        "Y": ring.element(y_image),
        "Z": ring.element(z_image),
    }
    return RingAutomorphism(ring, params, images)


def inverse_params(ring: RingPresentation, params: AutParams) -> AutParams:
    """Parameters of the inverse automorphism."""
    n, e = ring.n, ring.e
    lam_inv = 1 / params.lam
    mu_inv = 1 / params.mu
    a_inv = -mu_inv * lam_inv ** (n + e) * params.a.substitute({"X": lam_inv * _X})
    return AutParams(lam_inv, mu_inv, a_inv)


def compose_params(ring: RingPresentation, outer: AutParams, inner: AutParams) -> AutParams:
    """Parameters of outer after inner."""
    n, e = ring.n, ring.e
    a = inner.mu * outer.a + outer.lam ** (n + e) * inner.a.substitute({"X": outer.lam * _X})
    return AutParams(outer.lam * inner.lam, outer.mu * inner.mu, a)


def verify_auto(ring: RingPresentation, params: AutParams) -> CheckReport:
    """Full verification: relations, degree preservation, two-sided inverse.

    Let phi be the map of params and psi the map of inverse_params, built
    from its own parameters.  The independent entries are phi's relation
    residuals, the degrees of phi's images, and both composites psi.phi
    (left) and phi.psi (right) on X and S.  The composites' entries on Y and
    Z are derived from those by the lemma below, and are computed only when
    its premise fails.

    Lemma.  Let theta be a ring endomorphism of a full-family ring A with
    theta(X) = X and theta(S) = S.  Then theta(Y) = Y and theta(Z) = Z.

    Proof.  In A, X^n*Y = P(X, S) and X^e*Z = Q(X, Y) - S.  So
    X^n*theta(Y) = theta(P(X, S)) = P(X, S) = X^n*Y, and then
    X^e*theta(Z) = theta(Q(X, Y) - S) = Q(X, Y) - S = X^e*Z.  X is a
    nonzerodivisor in A: no rewrite rule's head (S^d, Y^m) bounds the
    exponent of X, so X^k times a canonical representative is canonical,
    and it is zero only when the representative is (tests/test_rings.py
    checks this on its grids).  When e = 0, Z = Q(X, Y) - S directly.

    Premise.  psi.phi and phi.psi are ring endomorphisms of A when phi and
    psi each send both relations into the ideal, that is, when all four
    relation residuals vanish.  psi's residuals are part of the premise and
    are never reported.

    So each side is evaluated in one substitute_all call: at phi's images,
    the relations (phi's residuals) and psi's X and S images (phi.psi on X
    and S); at psi's images, the relations (psi's residuals) and phi's X and
    S images (psi.phi on X and S).  A side whose premise and X and S entries
    all hold passes on Y and Z; any other side expands its composite through
    _images_after, so the witnesses, their texts and their order are those of
    the direct check on every input.

    A ring outside the family raises ValueError, as build_auto does; only
    inadmissible parameters are recorded as witnesses.
    """
    _require_normalized(ring)
    report = CheckReport(check="automorphism", ring=ring.fingerprint(), bound=0)
    witnesses = report.witnesses
    try:
        auto = build_auto(ring, params)
    except ValueError as err:
        witnesses.append(str(err))
        return report
    # only the composites' images are read, so their parameters are not composed
    inv = build_auto(ring, inverse_params(ring, params))
    relations = ring.relation_polys()
    k = len(relations)
    at_auto = substitute_all(relations + [inv.images[nm].rep for nm in _FIXED], auto.images)
    for rel, residual in zip(relations, at_auto):
        if not residual.is_zero():
            witnesses.append(f"relation {rel} maps to {residual}")

    D = canonical_derivation(ring)
    expected = {"X": 0, "S": 1, "Y": ring.d, "Z": ring.m * ring.d}
    for nm, want in expected.items():
        got = D.degree(auto.images[nm])
        if got != want:
            witnesses.append(f"degree of image of {nm} is {got}, expected {want}")

    at_inv = substitute_all(relations + [auto.images[nm].rep for nm in _FIXED], inv.images)
    premise = all(residual.is_zero() for residual in at_auto[:k] + at_inv[:k])
    held = {}
    for side, outer, inner, moved in (("left", inv, auto, at_inv[k:]), ("right", auto, inv, at_auto[k:])):
        fixes = {nm: got == ring.generator(nm) for nm, got in zip(_FIXED, moved)}
        if premise and all(fixes.values()):
            fixes |= dict.fromkeys(_DERIVED, True)  # the lemma
        else:
            images = outer._images_after(inner)
            fixes |= {nm: images[nm] == ring.generator(nm) for nm in _DERIVED}
        held[side] = fixes
    for nm in ring.varset.names:
        for side, fixes in held.items():
            if not fixes[nm]:
                witnesses.append(f"inverse fails on {nm} ({side})")
    return report
