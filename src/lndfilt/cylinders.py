"""Explicit isomorphisms between cylinders over non-isomorphic base rings.

The two step constructions, each solved by forced exact divisions:

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

Every division must be exact; a remainder would witness a wrong valuation
and raises immediately.  verify_step certifies an endomorphism through
three independent routes: exact relation transport, the forced congruence
(atomic steps), and a recovery chain that rebuilds every target generator
from the images.  Chains compose by substitution and are re-verified
against their endpoint rings only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .polynomials import MultiPoly, VarSet, parse_poly
from .rings import RingPresentation, evaluate_in_ring


class PolyEndo:
    """An algebra endomorphism of a polynomial ring, given on the variables."""

    __slots__ = ("varset", "images")

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
        self.images = got

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
        return PolyEndo(self.varset, {nm: self.apply(img) for nm, img in inner.images.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyEndo):
            return NotImplemented
        return self.varset == other.varset and self.images == other.images

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.varset.names),
            "images": {nm: str(self.images[nm]) for nm in self.varset.names},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> PolyEndo:
        try:
            names = data["vars"]
            images = data["images"]
        except KeyError as missing:
            raise ValueError(f"endomorphism JSON lacks key {missing}") from None
        varset = VarSet(names)
        return cls(varset, {nm: parse_poly(text, varset) for nm, text in images.items()})

    @classmethod
    def from_json(cls, text: str) -> PolyEndo:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"bad endomorphism JSON: {err}") from None
        if not isinstance(data, dict):
            raise ValueError("endomorphism JSON must be an object")
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class FullStep:
    """One twist increment e -> e+1 over the fixed base P = S^2 + 1, Q = Y^2."""

    n: int
    e: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.e < 1:
            raise ValueError("the twist step starts at e >= 1")

    def source_ring(self) -> RingPresentation:
        return RingPresentation.full(self.n, self.e, ["1", "0"], ["0", "0"], cylinder=True)

    def target_ring(self) -> RingPresentation:
        return RingPresentation.full(self.n, self.e + 1, ["1", "0"], ["0", "0"], cylinder=True)


@dataclass(frozen=True)
class DanielewskiStep:
    """One size increment n -> n+1 for a fixed P = S^d + X*Qt(X,S) + c, c != 0."""

    n: int
    p_coeffs: tuple

    def __init__(self, n: int, p_coeffs: Sequence):
        ring = RingPresentation.danielewski(max(n, 1), p_coeffs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p_coeffs", ring.p_coeffs)
        if n < 1:
            raise ValueError("n must be >= 1")
        c = self.constant()
        if c == 0:
            raise ValueError("P must have a nonzero constant term")
        for i, f in enumerate(self.p_coeffs):
            residue = f.constant_value() if i else f.constant_value() - c
            if residue != 0:
                raise ValueError(
                    "every coefficient of P - S^d - c must be divisible by X"
                )

    def constant(self) -> Fraction:
        return self.p_coeffs[0].constant_value()

    def source_ring(self) -> RingPresentation:
        return RingPresentation.danielewski(self.n, self.p_coeffs, cylinder=True)

    def target_ring(self) -> RingPresentation:
        return RingPresentation.danielewski(self.n + 1, self.p_coeffs, cylinder=True)


@dataclass(frozen=True)
class RecoveryRow:
    """One recovery step: symbol := expr, claiming to rebuild a ring element.

    expr lives over a mixed varset: upper-case names denote generator images,
    lower-case names denote the values of earlier rows in the same stage.
    """

    symbol: str
    expr: MultiPoly
    claimed: MultiPoly


@dataclass
class RecoveryStage:
    """One step's recovery chain plus which rows rebuild the generators."""

    rows: list[RecoveryRow]
    outputs: dict[str, str]


def _v(vs: VarSet, name: str) -> MultiPoly:
    return MultiPoly.variable(vs, name)


def _relabel(p: MultiPoly, mapping: Mapping[str, str], vs: VarSet) -> MultiPoly:
    """Rewrite p's variables by name into the mixed recovery varset."""
    images = {}
    for nm in p.varset.names:
        images[nm] = MultiPoly.variable(vs, mapping.get(nm, nm))
    return p.substitute(images)


def _solve_full(step: FullStep) -> tuple[PolyEndo, RecoveryStage]:
    src = step.source_ring()
    vs = src.varset
    n, e = step.n, step.e
    x, s, y, z, t = (_v(vs, nm) for nm in ("X", "S", "Y", "Z", "T"))
    p = src.p_poly()

    h = x ** (n + e) * t
    ident = {nm: _v(vs, nm) for nm in vs.names}
    p_shift = p.substitute({**ident, "S": s + h})
    ell = (p_shift - p).divide_exact(x ** n)
    f = (2 * y * ell + ell * ell - h).divide_exact(x ** e)
    img_y = y + ell
    img_z = x * z + f
    rhs = 4 * t * (s * (y * y - x ** (e + 1) * z) - x ** n * y)
    img_t = (img_y * img_z - rhs).divide_exact(x)
    endo = PolyEndo(vs, {"X": x, "S": s + h, "Y": img_y, "Z": img_z, "T": img_t})

    # recovery: the T-image splits as Y*Z + (X*Z)*a1 + b with a1, b free of Z
    a1 = (ell + 4 * x ** e * s * t).divide_exact(x)
    b = (y * f + ell * f + 4 * x ** n * y * t - 4 * t * s * y * y).divide_exact(x)
    if img_t != y * z + (x * z) * a1 + b:
        raise RuntimeError("T-image split disagrees with the solver")

    mixed = VarSet(("X", "S", "Y", "Z", "T", "x", "t", "s", "y", "xz", "yz", "sz"))
    low = {"X": "x", "S": "s", "Y": "y", "T": "t"}
    mx, ms, my, mz, mt = (_v(mixed, nm) for nm in ("X", "S", "Y", "Z", "T"))
    rx, rs, ry, rt = (_v(mixed, nm) for nm in ("x", "s", "y", "t"))
    r_xz, r_yz, r_sz = (_v(mixed, nm) for nm in ("xz", "yz", "sz"))
    rows = [
        RecoveryRow("x", mx, x),
        RecoveryRow("t", Fraction(-1, 4) * (my * mz - mx * mt), t),
        RecoveryRow("s", ms - rx ** (n + e) * rt, s),
        RecoveryRow("y", my - _relabel(ell, low, mixed), y),
        RecoveryRow("xz", mz - _relabel(f, low, mixed), x * z),
        RecoveryRow(
            "yz",
            mt - r_xz * _relabel(a1, low, mixed) - _relabel(b, low, mixed),
            y * z,
        ),
        RecoveryRow("sz", ry * r_yz - rx ** (e - 1) * r_xz * r_xz, s * z),
        RecoveryRow("z", rx ** n * r_yz - rs * r_sz, z),
    ]
    stage = RecoveryStage(rows=rows, outputs={"X": "x", "S": "s", "Y": "y", "Z": "z", "T": "t"})
    return endo, stage


def _solve_danielewski(step: DanielewskiStep) -> tuple[PolyEndo, RecoveryStage]:
    src = step.source_ring()
    vs = src.varset
    n, d = step.n, src.d
    c = step.constant()
    x, s, y, t = (_v(vs, nm) for nm in ("X", "S", "Y", "T"))
    p = src.p_poly()
    qt = (p - s ** d - c).divide_exact(x)

    h = x ** n * t
    ident = {nm: _v(vs, nm) for nm in vs.names}
    p_shift = p.substitute({**ident, "S": s + h})
    ell = (p_shift - p).divide_exact(x ** n)
    img_y = x * y + ell
    rhs = d * t * (p - c - x ** (n + 1) * y)
    img_t = (img_y * (s + h) - rhs).divide_exact(x)
    endo = PolyEndo(vs, {"X": x, "S": s + h, "Y": img_y, "T": img_t})

    # recovery: the T-image splits as Y*S + (d+1)*X^n*Y*T + yfree
    yfree = (ell * s + ell * h - d * t * s ** d - d * x * t * qt).divide_exact(x)
    if img_t != y * s + (d + 1) * x ** n * y * t + yfree:
        raise RuntimeError("T-image split disagrees with the solver")

    mixed = VarSet(("X", "S", "Y", "T", "x", "t", "s", "xy", "sy"))
    low = {"X": "x", "S": "s", "T": "t"}
    mx, ms, my, mt = (_v(mixed, nm) for nm in ("X", "S", "Y", "T"))
    rx, rs, rt = (_v(mixed, nm) for nm in ("x", "s", "t"))
    r_xy, r_sy = _v(mixed, "xy"), _v(mixed, "sy")
    rows = [
        RecoveryRow("x", mx, x),
        RecoveryRow("t", (Fraction(-1) / (d * c)) * (my * ms - mx * mt), t),
        RecoveryRow("s", ms - rx ** n * rt, s),
        RecoveryRow("xy", my - _relabel(ell, low, mixed), x * y),
        RecoveryRow(
            "sy",
            mt - (d + 1) * rx ** (n - 1) * rt * r_xy - _relabel(yfree, low, mixed),
            s * y,
        ),
        RecoveryRow(
            "y",
            (Fraction(1) / c)
            * (
                rx ** (n - 1) * r_xy * r_xy
                - r_sy * rs ** (d - 1)
                - r_xy * _relabel(qt, low, mixed)
            ),
            y,
        ),
    ]
    stage = RecoveryStage(rows=rows, outputs={"X": "x", "S": "s", "Y": "y", "T": "t"})
    return endo, stage


def solve_step(step) -> PolyEndo:
    """The step isomorphism, with every division checked exact."""
    if isinstance(step, FullStep):
        return _solve_full(step)[0]
    if isinstance(step, DanielewskiStep):
        return _solve_danielewski(step)[0]
    raise TypeError(f"not a cylinder step: {step!r}")


@dataclass
class IsoCertificate:
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _eliminate_s(ring: RingPresentation, p: MultiPoly) -> MultiPoly:
    """Substitute S -> Q(X,Y) - X^e*Z, the target-side S elimination."""
    vs = ring.varset
    images = {nm: _v(vs, nm) for nm in vs.names}
    images["S"] = ring.q_poly() - _v(vs, "X") ** ring.e * _v(vs, "Z")
    return p.substitute(images)


def _verify(
    endo: PolyEndo,
    source: RingPresentation,
    target: RingPresentation,
    stages: list[RecoveryStage],
    atomic_step=None,
    stage_boundaries: list[dict] | None = None,
) -> IsoCertificate:
    cert = IsoCertificate(source=source, target=target, endo=endo)
    vs = source.varset
    if vs != target.varset or vs != endo.varset:
        raise ValueError("source, target and endomorphism must share one varset")

    src_rels = source.relation_polys()
    tgt_rels = target.relation_polys()
    for k, (rs, rt) in enumerate(zip(src_rels, tgt_rels), start=1):
        got = endo.apply(rs)
        ok = got == rt
        cert.checks.append(
            {
                "name": f"relation-transport-{k}",
                "pass": ok,
                "detail": "exact identity" if ok else f"residual {got - rt}",
            }
        )

    if source.family == "full":
        mapped = endo.apply(source.eliminated_relation())
        got3 = _eliminate_s(target, mapped)
        want3 = target.eliminated_relation()
        ok = got3 == want3
        cert.checks.append(
            {
                "name": "relation-transport-eliminated",
                "pass": ok,
                "detail": "exact identity after eliminating S"
                if ok
                else f"residual {got3 - want3}",
            }
        )

    if atomic_step is not None:
        x, s, y, t = (_v(vs, nm) for nm in ("X", "S", "Y", "T"))
        if isinstance(atomic_step, FullStep):
            z = _v(vs, "Z")
            n, e = atomic_step.n, atomic_step.e
            moved = endo.apply(y * z - x * t)
            rhs = 4 * t * (s * (y * y - x ** (e + 1) * z) - x ** n * y)
            ok_exact = moved == rhs
            unit = 4
        else:
            n = atomic_step.n
            d = source.d
            c = atomic_step.constant()
            moved = endo.apply(y * s - x * t)
            rhs = d * t * (source.p_poly() - c - x ** (n + 1) * y)
            ok_exact = moved == rhs
            unit = d * c
        cert.checks.append(
            {
                "name": "displacement-identity",
                "pass": ok_exact,
                "detail": "exact identity" if ok_exact else f"residual {moved - rhs}",
            }
        )
        residue = target.normal_form(moved + unit * t)
        ok_cong = residue.is_zero()
        cert.checks.append(
            {
                "name": "displacement-congruence",
                "pass": ok_cong,
                "detail": f"maps to {-unit}*T in the target"
                if ok_cong
                else f"residual {residue}",
            }
        )
    else:
        cert.checks.append(
            {
                "name": "displacement-congruence",
                "pass": None,
                "detail": "skipped: not preserved under composition",
            }
        )

    # recovery: walk the stages, rebuilding generators in the target quotient
    env = {nm: target.normal_form(endo.images[nm]) for nm in vs.names}
    for idx, stage in enumerate(stages, start=1):
        last = idx == len(stages)
        values: dict = dict(env)
        rows = []
        for row in stage.rows:
            val = evaluate_in_ring(row.expr, values)
            values[row.symbol] = val
            verdict = val == target.normal_form(row.claimed) if last else None
            rows.append(
                {
                    "element": str(row.claimed),
                    "expression": f"{row.symbol} := {row.expr}",
                    "pass": verdict,
                }
            )
        nxt = {nm: values[sym] for nm, sym in stage.outputs.items()}
        if stage_boundaries is not None and not last:
            expected = stage_boundaries[idx - 1]
            ok = all(nxt[nm] == expected[nm] for nm in vs.names)
            rows.append(
                {
                    "element": "(stage boundary)",
                    "expression": "images of the remaining composite",
                    "pass": ok,
                }
            )
        cert.recovery.append({"stage": idx, "entries": rows})
        env = nxt
    final_rows = []
    for nm in vs.names:
        ok = env[nm] == target.generator(nm)
        final_rows.append(
            {
                "element": nm.lower(),
                "expression": f"stage-{len(stages)} recovery of {nm}",
                "pass": ok,
            }
        )
    cert.recovery.append({"stage": len(stages) + 1, "entries": final_rows})
    return cert


def verify_step(endo: PolyEndo, step) -> IsoCertificate:
    """Certify one atomic step endomorphism against its endpoint rings."""
    if isinstance(step, FullStep):
        _, stage = _solve_full(step)
    elif isinstance(step, DanielewskiStep):
        _, stage = _solve_danielewski(step)
    else:
        raise TypeError(f"not a cylinder step: {step!r}")
    return _verify(endo, step.source_ring(), step.target_ring(), [stage], atomic_step=step)


def _compose_steps(steps: list) -> tuple[PolyEndo, IsoCertificate]:
    solved = []
    for st in steps:
        if isinstance(st, FullStep):
            solved.append((st, *_solve_full(st)))
        else:
            solved.append((st, *_solve_danielewski(st)))
    for st, endo, stage in solved:
        atomic = _verify(endo, st.source_ring(), st.target_ring(), [stage], atomic_step=st)
        if not atomic.passed:
            raise ValueError(f"atomic step {st} failed verification")
    composed = solved[0][1]
    for _, endo, _ in solved[1:]:
        composed = endo.compose(composed)
    target = steps[-1].target_ring()
    # expected values at each internal stage boundary: the images of the
    # remaining composite, reduced in the final target
    boundaries = []
    for k in range(1, len(solved)):
        suffix = solved[k][1]
        for _, endo, _ in solved[k + 1 :]:
            suffix = endo.compose(suffix)
        boundaries.append(
            {nm: target.normal_form(suffix.images[nm]) for nm in target.varset.names}
        )
    cert = _verify(
        composed,
        steps[0].source_ring(),
        target,
        [stage for _, _, stage in solved],
        atomic_step=steps[0] if len(steps) == 1 else None,
        stage_boundaries=boundaries if len(solved) > 1 else None,
    )
    return composed, cert


def compose_chain(n: int, e_from: int, e_to: int) -> tuple[PolyEndo, IsoCertificate]:
    """The composed isomorphism R(n, e_from)[T] -> R(n, e_to)[T]."""
    if e_to <= e_from or e_from < 1:
        raise ValueError("need e_to > e_from >= 1")
    steps = [FullStep(n, e) for e in range(e_from, e_to)]
    return _compose_steps(steps)


def compose_danielewski_chain(
    n_from: int, n_to: int, p_coeffs: Sequence
) -> tuple[PolyEndo, IsoCertificate]:
    """The composed isomorphism B(n_from, P)[T] -> B(n_to, P)[T]."""
    if n_to <= n_from or n_from < 1:
        raise ValueError("need n_to > n_from >= 1")
    steps = [DanielewskiStep(n, p_coeffs) for n in range(n_from, n_to)]
    return _compose_steps(steps)


def cancellation_report(n: int, e1: int, e2: int) -> dict:
    """A cancellation counter-example: isomorphic cylinders, distinct bases.

    Builds and verifies the chain between the two cylinders and pairs the
    certificate with the base-ring fingerprints that tell the bases apart.
    """
    if e1 == e2:
        raise ValueError("the two twists must differ")
    lo, hi = min(e1, e2), max(e1, e2)
    endo, cert = compose_chain(n, lo, hi)
    if not cert.passed:
        raise ValueError("chain verification failed; no certificate to report")
    base1 = RingPresentation.full(n, e1, ["1", "0"], ["0", "0"])
    base2 = RingPresentation.full(n, e2, ["1", "0"], ["0", "0"])
    return {
        "cylinders_isomorphic": True,
        "direction": f"built from twist {lo} up to {hi}",
        "certificate": cert.to_json_dict(),
        "base_fingerprints": [
            {"n": n, "e": e1, "d": 2, "m": 2, "ring": base1.fingerprint()},
            {"n": n, "e": e2, "d": 2, "m": 2, "ring": base2.fingerprint()},
        ],
        "bases_distinct": e1 != e2,
        "note": (
            "the two base rings have distinct parameter fingerprints "
            f"(twists {e1} and {e2}), yet their cylinders are isomorphic "
            "by the certified chain"
        ),
    }
