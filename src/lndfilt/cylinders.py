"""Explicit isomorphisms between cylinders over non-isomorphic base rings.

The two step constructions, solved by one algorithm (_Step.solve) of forced
exact divisions, in which each kind gives only its own formulas:

* full family, P = S^2 + 1 and Q = Y^2 fixed:  an isomorphism
  R(n, e)[T] -> R(n, e+1)[T] with

      X -> X,  S -> S + H,  Y -> Y + L,  Z -> X*Z + F,
      T -> (img(Y)*img(Z) - 4*T*(S*(Y^2 - X^(e+1)*Z) - X^n*Y)) / X,

  where H = X^(n+e)*T, L = (P(X, S+H) - P(X, S)) / X^n and
  F = (2*Y*L + L^2 - H) / X^e.

* danielewski family, P = S^d + X*Qt(X, S) + c with c != 0:  an isomorphism
  B(n, P)[T] -> B(n+1, P)[T] with

      X -> X,  S -> S + H,  Y -> X*Y + L,
      T -> (img(Y)*img(S) - d*T*(P(X, S) - c - X^(n+1)*Y)) / X,

  where H = X^n*T and L as above.

Both maps X -> X, S -> S + H with H = X^k*T, k = n + e of the source ring
(e = 0 on a danielewski ring), and both T-images are forced by the
displacement identity phi(A*B - X*T) = rhs, with A*B = Y*Z and Y*S.  Every
division must be exact; a remainder would witness a wrong valuation and
raises immediately.  A solve returns the endomorphism and a RecoveryStage:
the step's source and target rings, the recovery chain and the displacement
identity, which depend on the step alone.  The endomorphism carries its
step and stage, so verify_step(solve_step(step), step) solves once and
builds each ring once; verify_step solves the step itself only for an
endomorphism that no solve of an equal step built.
verify_step certifies an endomorphism through three independent routes:
exact relation transport, the forced congruence (atomic steps), and a
recovery chain that rebuilds every target generator from the images; every
check runs on every call, whichever solve the stage came from.  The
recovery chain is a straight-line program.  One substitute_all call, at
the endomorphism's own polynomial images with each row symbol bound to its
row's claimed product of generators, moves the source relations, the
displacement's lhs and the recovery rows; each row's value is then reduced
once in the target and compared with its claim.  The normal form is a ring
homomorphism onto the quotient, so these verdicts are those of the rows
evaluated in the target at the reduced images and the earlier rows'
claims; by induction on the rows, they all pass exactly when the rows
evaluated one by one do, so a passing certificate is the sequential one.
When any row fails, the images are reduced and the rows run one by one
(the sequential fallback), and the certificate records their verdicts.
See _recovery_verdicts.  Three kinds of entry are derived, not computed
again:

* the full family's eliminated three-variable relation transported onto
  the target's follows from the two relation transports (S -> Q - X^e*Z
  kills the second relation, in which S enters only as -S, and the
  eliminated relation is by definition the first one with S so replaced),
  so it is expanded only when a transport fails; see _eliminated_transport;
* the recovery row t := -(A*B - X*T)/unit claims T, and its value is
  -phi(lhs)/unit, which is T in the target exactly when the displacement
  congruence holds, so it takes that entry's verdict; see _derives_t, which
  checks that the stage's t row is that expression;
* each stage-2 recovery row compares a recovered generator with the
  generator, which the stage-1 row claiming that generator has already
  done, so it takes that row's verdict; see _verify.

Chains compose by substitution.  A chain's certificate is assembled from its
steps' certificates: the composite's relation transports are checked afresh,
and every recovery entry follows from the steps' own; see _compose_steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import mul
from typing import Mapping, Sequence

from .graded import hat_ideal_tops
from .polynomials import (
    Document,
    MultiPoly,
    ReadableDocument,
    VarSet,
    _count,
    images_json,
    parse_poly,
    read_object,
    relabel,
    substitute_all,
)
from .rings import _VARSETS, _X_ONLY, RingPresentation, evaluate_in_ring


class PolyEndo(ReadableDocument):
    """An algebra endomorphism of a polynomial ring, given on the variables.

    images holds exactly one image per variable, over the same varset; a
    missing image, an image over another varset and an image for a name
    outside the varset each raise ValueError.

    An endomorphism built by a step's solve also holds that step and the
    solve's RecoveryStage (slot _solved), for verify_step; every other
    endomorphism, compose results and JSON reads included, holds None.
    Equality, printing and JSON ignore the slot.
    """

    __slots__ = ("varset", "images", "_solved")
    document = "endomorphism"

    def __init__(self, varset: VarSet, images: Mapping[str, MultiPoly]):
        self.varset = varset
        got = {}
        for nm in varset.names:
            if nm not in images:
                raise ValueError(f"no image for variable {nm!r}")
            img = images[nm]
            if img.varset != varset:
                raise ValueError(f"image of {nm!r} uses varset {img.varset!r}")
            got[nm] = img
        if len(got) != len(images):
            stray = [nm for nm in images if nm not in got]
            raise ValueError(f"images for names outside {varset!r}: {stray}")
        self.images = got
        self._solved: tuple[_Step, RecoveryStage] | None = None

    def apply(self, p: MultiPoly) -> MultiPoly:
        if p.varset != self.varset:
            raise ValueError("polynomial varset does not match the endomorphism")
        return p.substitute(self.images)

    def __call__(self, p: MultiPoly) -> MultiPoly:
        return self.apply(p)

    def compose(self, inner: PolyEndo) -> PolyEndo:
        """self after inner: variables flow through inner first."""
        if inner.varset != self.varset:
            raise ValueError("cannot compose endomorphisms over different varsets")
        images = substitute_all(list(inner.images.values()), self.images)
        return PolyEndo(self.varset, dict(zip(inner.images, images)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyEndo):
            return NotImplemented
        return self.varset == other.varset and self.images == other.images

    def to_json_dict(self) -> dict:
        return images_json(self.varset, self.images)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> PolyEndo:
        """Strict: "vars" is a list of names, "images" an object with exactly those keys.

        Every image is a string; each failure raises ValueError naming its key.
        """
        read_object(data, cls.document, ("vars", "images"))
        names, images = data["vars"], data["images"]
        if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
            raise ValueError(f"endomorphism 'vars' must be a list of variable names, got {names!r}")
        try:
            varset = VarSet(names)
        except ValueError as err:
            raise ValueError(f"endomorphism 'vars': {err}") from None
        if not isinstance(images, Mapping) or set(images) != set(names):
            raise ValueError(f"endomorphism 'images' must be an object keyed by exactly {names}")
        parsed = {}
        for nm in names:
            text = images[nm]
            if not isinstance(text, str):
                raise ValueError(f"endomorphism image {nm!r} is {text!r}; write the polynomial as a string")
            try:
                parsed[nm] = parse_poly(text, varset)
            except ValueError as err:
                raise ValueError(f"endomorphism image {nm!r}: {err}") from None
        return cls(varset, parsed)


@dataclass(frozen=True)
class RecoveryRow:
    """One recovery step: symbol := expr, claiming to rebuild a ring element.

    expr lives over a mixed varset: upper-case names denote generator images,
    lower-case names denote the values of earlier rows in the same stage.
    """

    symbol: str
    expr: MultiPoly
    claimed: MultiPoly


@dataclass(frozen=True)
class RecoveryStage:
    """What a step's solve hands its certificate, besides the endomorphism.

    The step's source and target rings, built once by the solve; the
    recovery chain, in which the row named nm.lower() claims the generator
    nm, so its verdict is the generator's final one; and the displacement
    (lhs, rhs, unit): the step maps lhs to rhs, which is -unit*T in the
    target, and that identity forced the T-image.  All of it depends on the
    step alone, not on the images.  An endomorphism carries the stage its
    solve built, so the stage is frozen and its rows are a tuple.
    """

    source: RingPresentation
    target: RingPresentation
    rows: tuple[RecoveryRow, ...]
    displacement: tuple[MultiPoly, MultiPoly, Fraction | int]


def _v(vs: VarSet, name: str) -> MultiPoly:
    return MultiPoly.variable(vs, name)


# the coefficient lists of the twist steps' fixed P = S^2 + 1 and Q = Y^2,
# built once, so that a step ring parses no coefficient text
_TWIST_P = (MultiPoly.constant(_X_ONLY, 1), MultiPoly.zero(_X_ONLY))
_TWIST_Q = (MultiPoly.zero(_X_ONLY), MultiPoly.zero(_X_ONLY))


class _Step:
    """The step algorithm that FullStep and DanielewskiStep share.

    A kind states only what differs: its endpoint rings (_ring(0) and
    _ring(1)); its displacement (_displacement: the names A and B, rhs and
    unit, where the step maps A*B - X*T to rhs, which is -unit*T in the
    target); the images of its relation variables with the T-image's split
    and solver pieces (_forced); and its recovery rows after s (_ROWS,
    _rows).  The solve does the rest once: S -> S + H with H = X^k*T for
    k = n + e of the source ring (e = 0 on a danielewski ring),
    L = (P(X, S+H) - P)/X^n, the forced T-image, the split check and the
    rows x, t and s.  Each kind's recovery varset is built once, when the
    kind is defined (__init_subclass__).
    """

    _ROWS: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        """The kind's row symbols, its recovery varset and that varset's variables, read off _ROWS.

        The recovery varset holds the generators, then x, t, s and every row
        but the last: the rows that later rows read.  Each generator nm has
        the row nm.lower() (stage 2 reads its verdict), so the generators are
        the cylinder variables with a one-letter row.  _ROWS_OF sends
        generator nm to row nm.lower() where that row is a variable.
        """
        super().__init_subclass__(**kwargs)
        cls._SYMBOLS = ("x", "t", "s", *cls._ROWS)
        generators = [nm for nm in _VARSETS[4, True].names if nm.lower() in cls._SYMBOLS]
        mixed = cls._RECOVERY = VarSet((*generators, *cls._SYMBOLS[:-1]))
        cls._RECOVERY_VARS = {nm: _v(mixed, nm) for nm in mixed.names}
        cls._ROWS_OF = {nm: nm.lower() for nm in generators if nm.lower() in mixed}

    def source_ring(self) -> RingPresentation:
        return self._ring(0)

    def target_ring(self) -> RingPresentation:
        return self._ring(1)

    def solve(self) -> tuple[PolyEndo, RecoveryStage]:
        """The step isomorphism and its recovery stage, every division checked exact.

        The rows live over the kind's recovery varset (__init_subclass__).  A
        row's claim is the product of the generators its letters name, so
        row "xz" claims X*Z.
        """
        src, tgt = self.source_ring(), self.target_ring()
        vs = src.varset
        g = {nm: _v(vs, nm) for nm in vs.names}
        x, s, t = g["X"], g["S"], g["T"]
        p = src.p_poly()
        k = src.n + src.e
        h = x ** k * t
        ell = (p.substitute({"X": x, "S": s + h}) - p).divide_exact(x ** self.n)
        a, b, rhs, unit = self._displacement(g, p)
        images, split, pieces = self._forced(g, p, h, ell)
        images.update(X=x, S=s + h)
        # the displacement identity phi(A*B - X*T) = rhs forces the T-image
        images["T"] = (images[a] * images[b] - rhs).divide_exact(x)
        if images["T"] != g[a] * g[b] + split:
            raise RuntimeError("T-image split disagrees with the solver")

        m = self._RECOVERY_VARS
        # the solver pieces, moved into the recovery varset
        moved = [relabel(piece, self._RECOVERY, self._ROWS_OF) for piece in pieces]
        exprs = (
            m["X"],
            Fraction(-1) / unit * (m[a] * m[b] - m["X"] * m["T"]),
            m["S"] - m["x"] ** k * m["t"],
            *self._rows(m, *moved),
        )
        rows = tuple(
            RecoveryRow(sym, expr, reduce(mul, (g[ch.upper()] for ch in sym)))
            for sym, expr in zip(self._SYMBOLS, exprs, strict=True)
        )
        stage = RecoveryStage(src, tgt, rows, (g[a] * g[b] - x * t, rhs, unit))
        endo = PolyEndo(vs, images)
        endo._solved = (self, stage)
        return endo, stage


@dataclass(frozen=True)
class FullStep(_Step):
    """One twist increment e -> e+1 over the fixed base P = S^2 + 1, Q = Y^2.

    n and e are checked when the step is made: each must be an int >= 1.
    """

    n: int
    e: int

    _ROWS = ("y", "xz", "yz", "sz", "z")

    def __post_init__(self):
        _count(self.n, "n", 1)
        _count(self.e, "e", 1)

    def _ring(self, step: int) -> RingPresentation:
        return RingPresentation.full(self.n, self.e + step, _TWIST_P, _TWIST_Q, cylinder=True)

    def _displacement(self, g: dict, p: MultiPoly) -> tuple:
        x, s, y, z, t = (g[nm] for nm in "XSYZT")
        # the step maps Y*Z - X*T to rhs, which is -4*T in the target
        return "Y", "Z", 4 * t * (s * (y * y - x ** (self.e + 1) * z) - x ** self.n * y), 4

    def _forced(self, g: dict, p: MultiPoly, h: MultiPoly, ell: MultiPoly) -> tuple:
        """The Y- and Z-images; the T-image splits as Y*Z + (X*Z)*a1 + b with a1, b free of Z."""
        x, s, y, z, t = (g[nm] for nm in "XSYZT")
        n, e = self.n, self.e
        f = (2 * y * ell + ell * ell - h).divide_exact(x ** e)
        a1 = (ell + 4 * x ** e * s * t).divide_exact(x)
        b = (y * f + ell * f + 4 * x ** n * y * t - 4 * t * s * y * y).divide_exact(x)
        return {"Y": y + ell, "Z": x * z + f}, (x * z) * a1 + b, (ell, f, a1, b)

    def _rows(self, m: dict, ell: MultiPoly, f: MultiPoly, a1: MultiPoly, b: MultiPoly) -> tuple:
        return (
            m["Y"] - ell,
            m["Z"] - f,
            m["T"] - m["xz"] * a1 - b,
            m["y"] * m["yz"] - m["x"] ** (self.e - 1) * m["xz"] * m["xz"],
            m["x"] ** self.n * m["yz"] - m["s"] * m["sz"],
        )


@dataclass(frozen=True)
class DanielewskiStep(_Step):
    """One size increment n -> n+1 for a fixed P = S^d + X*Qt(X,S) + c, c != 0.

    n and P are checked when the step is made, through the source ring (n an
    int >= 1, P's coefficients polynomials in X); p_coeffs holds them as that
    ring does.
    """

    n: int
    p_coeffs: tuple

    _ROWS = ("xy", "sy", "y")

    def __post_init__(self):
        object.__setattr__(self, "p_coeffs", RingPresentation.danielewski(self.n, self.p_coeffs).p_coeffs)
        c = self.constant()
        if c == 0:
            raise ValueError("P must have a nonzero constant term")
        for i, f in enumerate(self.p_coeffs):
            residue = f.constant_value() if i else f.constant_value() - c
            if residue != 0:
                raise ValueError("every coefficient of P - S^d - c must be divisible by X")

    def constant(self) -> Fraction:
        return self.p_coeffs[0].constant_value()

    def _ring(self, step: int) -> RingPresentation:
        return RingPresentation.danielewski(self.n + step, self.p_coeffs, cylinder=True)

    def _displacement(self, g: dict, p: MultiPoly) -> tuple:
        x, y, t = g["X"], g["Y"], g["T"]
        d, c = len(self.p_coeffs), self.constant()
        # the step maps Y*S - X*T to rhs, which is -d*c*T in the target
        return "Y", "S", d * t * (p - c - x ** (self.n + 1) * y), d * c

    def _forced(self, g: dict, p: MultiPoly, h: MultiPoly, ell: MultiPoly) -> tuple:
        """The Y-image; the T-image splits as Y*S + (d+1)*X^n*Y*T + yfree."""
        x, s, y, t = (g[nm] for nm in "XSYT")
        d, c = len(self.p_coeffs), self.constant()
        qt = (p - s ** d - c).divide_exact(x)
        yfree = (ell * s + ell * h - d * t * s ** d - d * x * t * qt).divide_exact(x)
        return {"Y": x * y + ell}, (d + 1) * x ** self.n * y * t + yfree, (ell, yfree, qt)

    def _rows(self, m: dict, ell: MultiPoly, yfree: MultiPoly, qt: MultiPoly) -> tuple:
        n, d, c = self.n, len(self.p_coeffs), self.constant()
        rx, r_xy = m["x"], m["xy"]
        return (
            m["Y"] - ell,
            m["T"] - (d + 1) * rx ** (n - 1) * m["t"] * r_xy - yfree,
            (Fraction(1) / c) * (rx ** (n - 1) * r_xy * r_xy - m["sy"] * m["s"] ** (d - 1) - r_xy * qt),
        )


def _require_step(step) -> _Step:
    if not isinstance(step, _Step):
        raise TypeError(f"not a cylinder step: {step!r}")
    return step


def solve_step(step) -> PolyEndo:
    """The step isomorphism, with every division checked exact."""
    return _require_step(step).solve()[0]


@dataclass
class IsoCertificate(Document):
    """The verdict of verify_step, with every route's outcome recorded."""

    source: RingPresentation
    target: RingPresentation
    endo: PolyEndo
    checks: list[dict] = field(default_factory=list)
    recovery: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        if any(not c["pass"] for c in self.checks if c["pass"] is not None):
            return False
        for stage in self.recovery:
            for entry in stage["entries"]:
                if entry["pass"] is False:
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.to_json_dict(),
            "target": self.target.to_json_dict(),
            "endo": self.endo.to_json_dict(),
            "checks": [dict(c) for c in self.checks],
            "recovery": [
                {"stage": st["stage"], "entries": [dict(en) for en in st["entries"]]}
                for st in self.recovery
            ],
            "pass": self.passed,
        }


def _identity_entry(name: str, got, want, holds: str = "exact identity") -> dict:
    """A certificate check that passes when got == want, else records the residual got - want."""
    ok = got == want
    return {"name": name, "pass": ok, "detail": holds if ok else f"residual {got - want}"}


def _eliminated_transport(
    endo: PolyEndo,
    source: RingPresentation,
    target: RingPresentation,
    transports_pass: bool,
) -> dict:
    """The relation-transport-eliminated check: sigma'(phi(E)) == E'.

    phi is endo, sigma and sigma' substitute S -> Q - X^e*Z on the source and
    the target (RingPresentation.eliminate_s), and E and E' are the
    eliminated relations of source and target.  This check is derived from
    the two relation transports, not independent of them.
    sigma'.phi.sigma and sigma'.phi are algebra maps that agree on every
    generator but S (sigma fixes the others), and on S they differ by
    sigma'(phi(rel2)), since sigma(S) = S + rel2.  Three premises hold by
    construction: E = sigma(rel1) and E' = sigma'(rel1'), because
    eliminated_relation is eliminate_s of the first relation (the toy
    relation written out in tests/test_rings.py pins that definition
    independently), and sigma'(rel2') = 0, because S enters
    rel2' = Q - X^e*Z - S only as -S, so sigma' turns it into
    Q - X^e*Z - (Q - X^e*Z) (tests/test_rings.py checks this on every
    two-relation ring of its grids).  So when

        phi(rel1) = rel1' and phi(rel2) = rel2'   (transport-1 and -2),

    the two maps agree on S as well, and

        sigma'(phi(E)) = sigma'(phi(sigma(rel1))) = sigma'(phi(rel1))
                       = sigma'(rel1') = E'.

    So a passing pair of transports gives the passing entry with no
    computation.  When a transport fails, sigma'(phi(E)) is expanded
    directly, so the verdict and the residual are those of the direct check
    on every input.
    """
    name, holds = "relation-transport-eliminated", "exact identity after eliminating S"
    if transports_pass:
        return {"name": name, "pass": True, "detail": holds}
    got = target.eliminate_s(endo.apply(source.eliminated_relation()))
    return _identity_entry(name, got, target.eliminated_relation(), holds)


def _transport_checks(
    endo: PolyEndo,
    source: RingPresentation,
    target: RingPresentation,
    moved: Sequence[MultiPoly] | None = None,
) -> list[dict]:
    """Each defining relation of source pushed through endo onto target's.

    moved holds the relations' images when the caller pushed them through
    endo already, in the one call that also moved its own polynomials.  A
    ring with a second relation eliminates S with it, and adds the entry
    that the two transports imply (_eliminated_transport).
    """
    if moved is None:
        moved = substitute_all(source.relation_polys(), endo.images)
    checks = [
        _identity_entry(f"relation-transport-{k}", got, rt)
        for k, (got, rt) in enumerate(zip(moved, target.relation_polys()), start=1)
    ]
    if len(checks) > 1:
        transports_pass = all(c["pass"] for c in checks)
        checks.append(_eliminated_transport(endo, source, target, transports_pass))
    return checks


def _reads_earlier_rows_only(stage: RecoveryStage) -> bool:
    """Whether each row reads only generators and the rows before it.

    Also whether every row symbol is new: no generator and no other row
    takes it.  Every solve builds its stage so; a stage built by hand may
    break either.
    """
    known = set(stage.source.varset.names)
    for row in stage.rows:
        used = compress(row.expr.varset.names, map(any, zip(*row.expr.nums)))
        if row.symbol in known or not known.issuperset(used):
            return False
        known.add(row.symbol)
    return True


def _sequential_recovery(stage: RecoveryStage, values: dict) -> list[bool]:
    """Each row's verdict, the rows evaluated one by one on the values before them.

    values maps the generators to their reduced images; each row's value is
    added under its symbol.  A row that reads a name with no value yet
    raises ValueError, from evaluate_in_ring.
    """
    target = stage.target
    verdicts = []
    for row in stage.rows:
        val = evaluate_in_ring(row.expr, values)
        values[row.symbol] = val
        verdicts.append(val == target.normal_form(row.claimed))
    return verdicts


def _derives_t(stage: RecoveryStage, row: RecoveryRow) -> bool:
    """Whether row is t := -lhs/unit claiming T, so that the displacement congruence is its verdict.

    (lhs, rhs, unit) is the stage's displacement.  Such a row reads only
    generators, so its value at the images is -phi(lhs)/unit, and that is T
    in the target exactly when nf(phi(lhs) + unit*T) = 0, since unit != 0
    and nf is linear: the test of the displacement-congruence entry, which
    _verify computes anyway.  Every solve builds its t row so; a t row of a
    stage built by hand that differs is evaluated with the other rows.
    """
    lhs, _, unit = stage.displacement
    home = row.expr.varset
    return (
        row.symbol == "t"
        and row.claimed == _v(stage.source.varset, "T")
        and unit != 0
        and all(nm in home for nm in lhs.varset.names)
        and unit * row.expr == -lhs.rename(home)
    )


def _recovery_verdicts(
    stage: RecoveryStage,
    endo: PolyEndo,
    batch: list[RecoveryRow] | None,
    values: Sequence[MultiPoly],
    derived: bool,
) -> list[bool]:
    """Each stage-1 row's verdict: its value on the generators' reduced images equals its claim.

    The rows form a straight-line program, value_k = expr_k(g, value_1, ...,
    value_(k-1)) for the reduced images g, and row k passes when value_k is
    claim_k, its claimed product of generators, in the target.  values holds
    batch_k = expr_k(phi, claim_1, ..., claim_(k-1)) for each row of batch,
    evaluated by _verify as polynomials, at the endomorphism's own images
    phi and with each row symbol j set to claim_j instead of value_j; batch
    is None when the rows can only run one by one.

    * Evaluated at polynomials: nf, the normal form in the target, is a
      ring homomorphism onto the quotient, so nf(batch_k) = expr_k(g,
      nf(claim_1), ..., nf(claim_(k-1))), the same row evaluated in the
      target at the reduced images and claims; and row k's batched verdict
      is nf(batch_k - claim_k) = 0, that is nf(batch_k) = nf(claim_k), with
      one reduction.
    * The batch proves the chain: when every batch_k is claim_k in the
      target, every value_k is, by induction on k.  Row 1 reads only g, so
      value_1 = nf(batch_1) = claim_1; and if value_j = claim_j for all
      j < k, then value_k = expr_k(g, claim_1, ..., claim_(k-1)) =
      nf(batch_k) = claim_k.  Conversely, when every value_k is claim_k,
      nf(batch_k) is value_k for every k.  So the batched verdicts all pass
      exactly when the sequential ones do, and then they are the same
      verdicts.  The induction needs each row to read only g and earlier
      rows, under symbols of their own (_reads_earlier_rows_only).
    * A row t := -lhs/unit claiming T is left out of the batch, and
      derived is its batched verdict, the displacement congruence's
      (_derives_t gives the proof and checks the premise); derived is True
      when no row is left out.

    When the premise fails (batch None), or any batched verdict fails, the
    generators' images are reduced and the rows run one by one
    (_sequential_recovery), whose verdicts, and errors, are then the
    certificate's: the pattern of _eliminated_transport.
    """
    target = stage.target
    if batch is not None and derived:
        diffs = (value - row.claimed for row, value in zip(batch, values))
        if all(target.normal_form(diff).is_zero() for diff in diffs):
            return [True] * len(stage.rows)
    reduced = {nm: target.normal_form(endo.images[nm]) for nm in stage.source.varset.names}
    return _sequential_recovery(stage, reduced)


def _verify(endo: PolyEndo, stage: RecoveryStage) -> IsoCertificate:
    """Certify one atomic step's endomorphism against its endpoint rings.

    stage is the step's recovery stage, which also holds its endpoint rings
    and its displacement.  One substitute_all call, at endo's images with
    each row symbol bound to its row's claim, moves the source's relations,
    the displacement's lhs and the stage-1 recovery rows, when each row
    reads only generators and earlier rows (_reads_earlier_rows_only).
    Three kinds of entry are derived, not computed: the eliminated-relation
    entry follows from the two relation transports (_eliminated_transport);
    the row t := -lhs/unit takes the displacement congruence's verdict
    (_derives_t); and the stage-2 row of generator nm is the verdict of
    stage-1 row nm.lower(), which claims the generator and holds the value
    the stage-2 row would compare.  Each batched row is reduced once and
    compared with its claim; a passing batch proves the sequential chain
    passes, and any failing row sends the rows through the sequential chain
    instead, on the reduced images, which then gives every verdict
    (_recovery_verdicts).
    """
    source, target = stage.source, stage.target
    vs = source.varset
    if vs != endo.varset:
        raise ValueError("source, target and endomorphism must share one varset")
    cert = IsoCertificate(source=source, target=target, endo=endo)
    lhs, rhs, unit = stage.displacement
    relations = source.relation_polys()
    batch, env, t_row = None, endo.images, None
    if _reads_earlier_rows_only(stage):
        t_row = next((row for row in stage.rows if _derives_t(stage, row)), None)
        batch = [row for row in stage.rows if row is not t_row]
        env = {**endo.images, **{row.symbol: row.claimed for row in stage.rows}}
    got = substitute_all([*relations, lhs, *(row.expr for row in batch or ())], env)
    r = len(relations)
    cert.checks = _transport_checks(endo, source, target, got[:r])

    moved = got[r]
    residue = target.normal_form(moved + unit * _v(vs, "T"))
    cert.checks += [
        _identity_entry("displacement-identity", moved, rhs),
        _identity_entry("displacement-congruence", residue, 0, f"maps to {-unit}*T in the target"),
    ]

    # recovery: rebuild every target generator in the target quotient
    derived = t_row is None or residue.is_zero()
    passes = _recovery_verdicts(stage, endo, batch, got[r + 1 :], derived)
    rows = [
        {
            "element": str(row.claimed),
            "expression": f"{row.symbol} := {row.expr}",
            "pass": ok,
        }
        for row, ok in zip(stage.rows, passes)
    ]
    verdicts = {row.symbol: ok for row, ok in zip(stage.rows, passes)}
    cert.recovery.append({"stage": 1, "entries": rows})
    final_rows = [
        {
            "element": nm.lower(),
            "expression": f"stage-1 recovery of {nm}",
            "pass": verdicts[nm.lower()],
        }
        for nm in vs.names
    ]
    cert.recovery.append({"stage": 2, "entries": final_rows})
    return cert


def _stage_of(endo: PolyEndo, step: _Step) -> RecoveryStage:
    """step's recovery stage: the one endo was solved with, else a fresh solve's.

    A stage depends on its step alone, so the stage of a solve of an equal
    step is the stage a new solve would build.
    """
    if endo._solved is not None and endo._solved[0] == step:
        return endo._solved[1]
    return step.solve()[1]


def verify_step(endo: PolyEndo, step) -> IsoCertificate:
    """Certify one atomic step endomorphism against its endpoint rings.

    The recovery stage and the displacement come from the solve that built
    endo, when solve_step (or step.solve()) built it from a step equal to
    step.  For any other endo (one built by hand, read from JSON, composed,
    copied with a changed image, or solved from another step) verify_step
    solves step once for them.  Every check runs on endo's images either way.
    """
    _require_step(step)
    return _verify(endo, _stage_of(endo, step))


def _compose_steps(steps: list) -> tuple[PolyEndo, IsoCertificate]:
    """The composite of the steps, certified from the steps' own certificates.

    Write phi_k : R_k[T] -> R_{k+1}[T] for step k of L and Phi for the
    composite phi_L . ... . phi_1, built by compose.  Every step is solved
    once and certified alone, from the stage its endomorphism carries, as
    verify_step does; a failing step raises ValueError, as do steps whose
    endpoints do not meet.  A chain of one step is its step's certificate.

    The composite's relation transports, and the eliminated-relation entry
    derived from them, are computed on Phi itself: that is the one check
    kept deliberately independent of the steps, and it guards the X, S, Y
    and Z images against a fault in compose.  No relation involves T, so the
    T-image is correct by construction, as the substitution of the steps'
    T-images through each other, and no check covers it.

    The recovery entries are those of the expanded check (stage k's rows
    evaluated, in R_{L+1}, on the values the stages before it left), and
    they follow from the step certificates:

    * psi_k = phi_L . ... . phi_{k+1} is a ring map R_{k+1}[T] -> R_{L+1}[T]
      (psi_L the identity), because every step passed its relation
      transports and each step starts where the one before ends.  Recovery
      rows are polynomials, so stage k evaluated on the images of
      psi_k . phi_k equals psi_k of stage k evaluated on the images of phi_k.
    * Certificate k shows that the latter are R_{k+1}'s generators (its
      final rows).  So stage k, run on the images of psi_k . phi_k, leaves
      the images of psi_k: the stage boundary holds, with the verdict of
      certificate k's final rows.  Stage 1 runs on Phi = psi_1 . phi_1, and
      psi_k = psi_{k+1} . phi_{k+1} hands stage k + 1 its input, so by
      induction every boundary holds.
    * Stage L runs on the images of psi_L . phi_L = phi_L reduced in
      R_{L+1}, exactly as in certificate L, so its rows and the final rows
      are certificate L's, the final rows relabelled as stage L's.  Rows of
      earlier stages claim no verdict in the expanded check either (pass
      None).

    So nothing is reduced or evaluated on the composite's images.
    """
    solved = [st.solve() for st in steps]
    for k in range(1, len(steps)):
        if solved[k - 1][1].target != solved[k][1].source:
            raise ValueError(f"step {steps[k]} does not start at the target of {steps[k - 1]}")
    atomic = []
    for st, (endo, stage) in zip(steps, solved):
        cert = _verify(endo, stage)
        if not cert.passed:
            raise ValueError(f"atomic step {st} failed verification")
        atomic.append(cert)
    composed = solved[0][0]
    for endo, _ in solved[1:]:
        composed = endo.compose(composed)
    if len(steps) == 1:
        return composed, atomic[0]

    source, target = atomic[0].source, atomic[-1].target
    cert = IsoCertificate(source=source, target=target, endo=composed)
    cert.checks = _transport_checks(composed, source, target)
    cert.checks.append(
        {
            "name": "displacement-congruence",
            "pass": None,
            "detail": "skipped: not preserved under composition",
        }
    )
    last = len(atomic)
    for k, step_cert in enumerate(atomic, start=1):
        rows, final = (stage["entries"] for stage in step_cert.recovery)
        if k < last:
            entries = [{**row, "pass": None} for row in rows]
            entries.append(
                {
                    "element": "(stage boundary)",
                    "expression": "images of the remaining composite",
                    "pass": all(row["pass"] for row in final),
                }
            )
        else:
            entries = [dict(row) for row in rows]
        cert.recovery.append({"stage": k, "entries": entries})
    cert.recovery.append(
        {
            "stage": last + 1,
            "entries": [
                {**row, "expression": f"stage-{last} recovery of {nm}"}
                for nm, row in zip(target.varset.names, final)
            ],
        }
    )
    return composed, cert


def compose_chain(n: int, e_from: int, e_to: int) -> tuple[PolyEndo, IsoCertificate]:
    """The composed isomorphism R(n, e_from)[T] -> R(n, e_to)[T]."""
    _count(e_to, "e_to", _count(e_from, "e_from", 1) + 1)
    steps = [FullStep(n, e) for e in range(e_from, e_to)]
    return _compose_steps(steps)


def compose_danielewski_chain(
    n_from: int, n_to: int, p_coeffs: Sequence
) -> tuple[PolyEndo, IsoCertificate]:
    """The composed isomorphism B(n_from, P)[T] -> B(n_to, P)[T]."""
    _count(n_to, "n_to", _count(n_from, "n_from", 1) + 1)
    steps = [DanielewskiStep(n, p_coeffs) for n in range(n_from, n_to)]
    return _compose_steps(steps)


def cancellation_report(n: int, e1: int, e2: int) -> dict:
    """A cancellation counter-example: isomorphic cylinders, distinct bases.

    Builds and verifies the chain between the two cylinders and pairs the
    certificate with the evidence that tells the bases apart: the top
    components of their defining relations (the relations of the associated
    graded algebras), compared rather than assumed to differ.  The bases
    are the certificate's endpoint rings without T.
    """
    if _count(e1, "e1", 1) == _count(e2, "e2", 1):
        raise ValueError("the two twists must differ")
    lo, hi = min(e1, e2), max(e1, e2)
    endo, cert = compose_chain(n, lo, hi)
    if not cert.passed:
        raise ValueError("chain verification failed; no certificate to report")
    low, high = cert.source.base(), cert.target.base()
    bases = [low, high] if e1 < e2 else [high, low]
    tops = [[str(t) for t in hat_ideal_tops(base)] for base in bases]
    return {
        "cylinders_isomorphic": True,
        "direction": f"built from twist {lo} up to {hi}",
        "certificate": cert.to_json_dict(),
        "base_fingerprints": [
            {"n": b.n, "e": b.e, "d": b.d, "m": b.m, "ring": b.fingerprint(), "hat_ideal_tops": top}
            for b, top in zip(bases, tops)
        ],
        "bases_distinct": tops[0] != tops[1],
        "note": (
            f"the base rings with twists {e1} and {e2} have different "
            "graded relations (hat-ideal tops), yet their cylinders are "
            "isomorphic by the certified chain"
        ),
    }
