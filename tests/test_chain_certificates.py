"""Chain certificates assembled from the steps' certificates.

The reference here is the expanded route: the recovery program runs on the
composite's own images, reduced in the final target, and every stage
boundary is compared with the images of the suffix composite.  The derived
certificate must equal it entry for entry.
"""

from __future__ import annotations

import hashlib
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt import cylinders
from lndfilt.cli import main
from lndfilt.cylinders import (
    DanielewskiStep,
    FullStep,
    IsoCertificate,
    PolyEndo,
    _compose_steps,
    _transport_checks,
    compose_chain,
    compose_danielewski_chain,
)
from lndfilt.polynomials import MultiPoly, VarSet
from lndfilt.rings import QuotElem, RingPresentation, evaluate_in_ring

SIZE_P = ["1", "0", "X^2", "0"]


def expanded_chain_certificate(steps: list) -> tuple[PolyEndo, IsoCertificate]:
    """The chain certificate with the recovery program run on the composite."""
    solved = [(step, *step.solve()) for step in steps]

    def compose(later: list) -> PolyEndo:
        composed = later[0]
        for endo in later[1:]:
            composed = PolyEndo(
                composed.varset,
                {nm: endo.apply(img) for nm, img in composed.images.items()},
            )
        return composed

    composed = compose([endo for _, endo, _ in solved])
    source, target = steps[0].source_ring(), steps[-1].target_ring()
    vs = target.varset
    # expected values at each internal stage boundary: the images of the
    # remaining composite, reduced in the final target
    boundaries = []
    for k in range(1, len(solved)):
        suffix = compose([endo for _, endo, _ in solved[k:]])
        boundaries.append({nm: target.normal_form(suffix.images[nm]) for nm in vs.names})

    cert = IsoCertificate(source=source, target=target, endo=composed)
    cert.checks = _transport_checks(composed, source, target)
    if len(steps) == 1:
        lhs, rhs, unit = solved[0][2].displacement
        moved = composed.apply(lhs)
        ok_exact = moved == rhs
        cert.checks.append(
            {
                "name": "displacement-identity",
                "pass": ok_exact,
                "detail": "exact identity" if ok_exact else f"residual {moved - rhs}",
            }
        )
        residue = target.normal_form(moved + unit * MultiPoly.variable(vs, "T"))
        ok_cong = residue.is_zero()
        cert.checks.append(
            {
                "name": "displacement-congruence",
                "pass": ok_cong,
                "detail": f"maps to {-unit}*T in the target" if ok_cong else f"residual {residue}",
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

    env = {nm: target.normal_form(composed.images[nm]) for nm in vs.names}
    stages = [stage for _, _, stage in solved]
    for idx, stage in enumerate(stages, start=1):
        last = idx == len(stages)
        values = dict(env)
        rows = []
        for row in stage.rows:
            val = evaluate_in_ring(row.expr, values)
            values[row.symbol] = val
            rows.append(
                {
                    "element": str(row.claimed),
                    "expression": f"{row.symbol} := {row.expr}",
                    "pass": val == target.normal_form(row.claimed) if last else None,
                }
            )
        nxt = {nm: values[nm.lower()] for nm in vs.names}
        if not last:
            expected = boundaries[idx - 1]
            rows.append(
                {
                    "element": "(stage boundary)",
                    "expression": "images of the remaining composite",
                    "pass": all(nxt[nm] == expected[nm] for nm in vs.names),
                }
            )
        cert.recovery.append({"stage": idx, "entries": rows})
        env = nxt
    cert.recovery.append(
        {
            "stage": len(stages) + 1,
            "entries": [
                {
                    "element": nm.lower(),
                    "expression": f"stage-{len(stages)} recovery of {nm}",
                    "pass": env[nm] == target.generator(nm),
                }
                for nm in vs.names
            ],
        }
    )
    return composed, cert


CHAINS = [
    ("twist-1-1-3", lambda: compose_chain(1, 1, 3), [FullStep(1, 1), FullStep(1, 2)]),
    ("twist-2-1-3", lambda: compose_chain(2, 1, 3), [FullStep(2, 1), FullStep(2, 2)]),
    ("twist-1-2-3", lambda: compose_chain(1, 2, 3), [FullStep(1, 2)]),
    (
        "size-1-3",
        lambda: compose_danielewski_chain(1, 3, SIZE_P),
        [DanielewskiStep(1, SIZE_P), DanielewskiStep(2, SIZE_P)],
    ),
    (
        "size-2-4",
        lambda: compose_danielewski_chain(2, 4, ["2", "X", "0"]),
        [DanielewskiStep(2, ["2", "X", "0"]), DanielewskiStep(3, ["2", "X", "0"])],
    ),
]


@pytest.mark.parametrize("chain,steps", [(c[1], c[2]) for c in CHAINS], ids=[c[0] for c in CHAINS])
def test_derived_certificate_equals_expanded(chain, steps):
    endo, cert = chain()
    ref_endo, ref_cert = expanded_chain_certificate(steps)
    assert endo == ref_endo
    assert cert.passed
    assert cert.to_json_dict() == ref_cert.to_json_dict()


# sha256 of the stdout of each command, recorded before chain certificates
# were derived from the steps' certificates
PINNED_STDOUT = [
    (
        ["cyliso", "-n", "1", "--from", "1", "--to", "3"],
        "288774c6246f7ec421610cf31cb181475a0b021d4845fdef825f7fb61c3175d8",
    ),
    (
        ["danielewski-cyliso", "--from", "1", "--to", "3", "--poly", "1,0,X^2,0"],
        "4a54c7ffdd2215f3e187796d75ebd8d3b4074b36254cbc468cc038afea9dd6d2",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=["cyliso", "danielewski-cyliso"])
def test_chain_stdout_is_pinned(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=["cyliso", "danielewski-cyliso"])
def test_chain_out_file_is_pinned(capsys, tmp_path, argv, digest):
    # --out writes the bytes the command prints without it
    out = tmp_path / "chain.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"certificate: pass -> {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the stdout of two commands outside the chains, recorded before
# substitute_all became the one evaluation routine
TOY_PARAMS = '{"lambda": "8", "mu": "16", "a": "X - 2*X^3"}'
PINNED_TOY_STDOUT = [
    (
        ["verify-suite", "--toy", "--json"],
        "abc7331239416ad16e595322e977e98c572b29187080f15ebb0d8cacb65fdc6a",
    ),
    (
        ["auto-verify", "--toy", "--json", "--params", "{params}"],
        "3a6a42fd7f33e94a665865ce2a3b8628bcebaecb6dc9edf5a937f6875c805a74",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_TOY_STDOUT, ids=["verify-suite", "auto-verify"])
def test_toy_stdout_is_pinned(capsys, tmp_path, argv, digest):
    params = tmp_path / "params.json"
    params.write_text(TOY_PARAMS)
    assert main([arg.format(params=params) for arg in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


ONE_AND_TWO_STEPS = [c for c in CHAINS if c[0] in ("twist-1-2-3", "twist-1-1-3", "size-1-3")]


@pytest.mark.parametrize("chain", [c[1] for c in ONE_AND_TWO_STEPS], ids=[c[0] for c in ONE_AND_TWO_STEPS])
def test_certificate_holds_the_returned_endo(chain):
    # the CLI formats the endomorphism once, from the certificate
    endo, cert = chain()
    assert cert.endo is endo


def _drop(img: MultiPoly, exps: tuple[int, ...]) -> MultiPoly:
    return MultiPoly(img.varset, {e: c for e, c in img.terms.items() if e != exps})


def test_chain_rejects_each_deletion_in_a_step(monkeypatch):
    # each single-term deletion in step 2's T-image is planted in
    # FullStep(1, 2).solve; the step's own certificate fails, so the chain
    # must raise rather than certify
    original = FullStep.solve
    terms = list(original(FullStep(1, 2))[0].images["T"].terms)
    rejected = 0
    for exps in terms:

        def mutated(step, exps=exps):
            endo, stage = original(step)
            if step.e == 2:
                images = {**endo.images, "T": _drop(endo.images["T"], exps)}
                endo = PolyEndo(endo.varset, images)
            return endo, stage

        monkeypatch.setattr(FullStep, "solve", mutated)
        try:
            compose_chain(1, 1, 3)
        except ValueError:
            rejected += 1
    assert (len(terms), rejected) == (14, 14)


@pytest.mark.parametrize("name,seed", [("S", 1), ("Y", 2), ("Z", 3)])
def test_compose_fault_fails_the_composite_transports(monkeypatch, name, seed):
    # a fault in compose leaves every step certificate intact; the
    # composite's own relation transports must catch it
    original = PolyEndo.compose

    def faulty(outer, inner):
        composed = original(outer, inner)
        img = composed.images[name]
        exps = Random(seed).choice(sorted(img.terms))
        return PolyEndo(composed.varset, {**composed.images, name: _drop(img, exps)})

    monkeypatch.setattr(PolyEndo, "compose", faulty)
    _, cert = compose_chain(1, 1, 3)
    assert not cert.passed
    assert any(
        c["name"].startswith("relation-transport") and c["pass"] is False and "residual" in c["detail"]
        for c in cert.checks
    )


def test_endpoints_must_meet():
    with pytest.raises(ValueError, match="does not start at the target"):
        _compose_steps([FullStep(1, 1), FullStep(1, 3)])
    with pytest.raises(ValueError, match="does not start at the target"):
        _compose_steps([DanielewskiStep(1, SIZE_P), DanielewskiStep(2, ["2", "X", "0"])])


def test_each_step_is_verified_once(monkeypatch):
    calls = []
    original = cylinders._verify

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cylinders, "_verify", counting)
    compose_chain(1, 1, 3)
    assert len(calls) == 2
    calls.clear()
    compose_chain(2, 1, 2)
    assert len(calls) == 1


def test_composite_images_are_never_reduced(monkeypatch):
    endo, cert = compose_chain(1, 1, 3)
    target = cert.target
    # X maps to X, which the steps reduce as a generator in their own right
    composite = [endo.images[nm] for nm in ("S", "Y", "Z", "T")]
    reduced = [target.normal_form(img).rep for img in composite]
    reduced_args, evaluated_envs = [], []
    normal_form = RingPresentation.normal_form
    evaluate, evaluate_all = cylinders.evaluate_in_ring, cylinders.substitute_all

    def spy_normal_form(ring, p, *args, **kwargs):
        reduced_args.append(p)
        return normal_form(ring, p, *args, **kwargs)

    def record(values):
        # representatives of ring elements, so that every image compares as a polynomial
        evaluated_envs.append([v.rep if isinstance(v, QuotElem) else v for v in values])

    def spy_evaluate(p, env):
        record(env.values())
        return evaluate(p, env)

    def spy_evaluate_all(polys, env):
        # the recovery evaluations: each step's one call, which binds the row
        # symbols beside the generators' polynomial images, and any call at
        # ring elements; the composite's relation transports bind neither
        values = list(env.values())
        if set(env) - set(target.varset.names) or any(isinstance(v, QuotElem) for v in values):
            record(values)
        return evaluate_all(polys, env)

    monkeypatch.setattr(RingPresentation, "normal_form", spy_normal_form)
    monkeypatch.setattr(cylinders, "evaluate_in_ring", spy_evaluate)
    monkeypatch.setattr(cylinders, "substitute_all", spy_evaluate_all)
    again, _ = compose_chain(1, 1, 3)
    assert again == endo
    assert reduced_args and evaluated_envs
    assert not any(p == img for p in reduced_args for img in composite)
    # no composite image, reduced or not, is ever an evaluation image
    images = composite + reduced
    assert not any(v == img for env in evaluated_envs for v in env for img in images)


XST = VarSet(("X", "S", "T"))


def _endos():
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    image = st.dictionaries(exps, coeffs, max_size=3).map(lambda t: MultiPoly(XST, t))
    return st.fixed_dictionaries({nm: image for nm in XST.names}).map(
        lambda images: PolyEndo(XST, images)
    )


@settings(max_examples=60, deadline=None)
@given(_endos(), _endos())
def test_compose_equals_per_image_apply(outer, inner):
    composed = outer.compose(inner)
    assert composed.images == {nm: outer.apply(img) for nm, img in inner.images.items()}
