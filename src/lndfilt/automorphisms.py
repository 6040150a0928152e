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
    relations = ring.relation_polys()
    for rel, residual in zip(relations, substitute_all(relations, auto.images)):
        if not residual.is_zero():
            witnesses.append(f"relation {rel} maps to {residual}")

    D = canonical_derivation(ring)
    expected = {"X": 0, "S": 1, "Y": ring.d, "Z": ring.m * ring.d}
    for nm, want in expected.items():
        got = D.degree(auto.images[nm])
        if got != want:
            witnesses.append(f"degree of image of {nm} is {got}, expected {want}")

    # only the composites' images are read, so their parameters are not composed
    inv = build_auto(ring, inverse_params(ring, params))
    sides = (("left", inv._images_after(auto)), ("right", auto._images_after(inv)))
    for nm in ring.varset.names:
        generator = ring.generator(nm)
        for side, images in sides:
            if images[nm] != generator:
                witnesses.append(f"inverse fails on {nm} ({side})")
    return report
