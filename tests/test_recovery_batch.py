"""The stage-1 recovery rows of a step certificate, evaluated in one call.

The reference is the sequential chain: each row evaluated on its own, on
the generators' reduced images and the values of the rows before it, as
cylinders._verify read before the rows were batched.  The certificate must
equal the reference's byte for byte, on passing steps and on mutated ones,
whose failing rows send the certificate through the sequential chain.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from lndfilt import cylinders
from lndfilt.cylinders import (
    DanielewskiStep,
    FullStep,
    IsoCertificate,
    PolyEndo,
    RecoveryStage,
    _identity_entry,
    _transport_checks,
    _verify,
    solve_step,
    verify_step,
)
from lndfilt.polynomials import MultiPoly
from lndfilt.rings import RingPresentation, evaluate_in_ring

P_SHAPES = [
    ["1", "0"],
    ["1", "0", "X^2", "0"],
    ["2", "X", "0"],
    ["-1", "X", "X", "0"],
    ["1", "X", "X", "X^3", "0"],
    ["-3", "X^2", "0"],
]
SWEEP = [FullStep(n, e) for n in range(1, 9) for e in range(1, 9)] + [
    DanielewskiStep(n, p) for p in P_SHAPES for n in range(1, 9)
]
MUTATED = [FullStep(1, 1), FullStep(2, 3), DanielewskiStep(2, ["1", "0", "X^2", "0"])]


def sequential_certificate(endo: PolyEndo, stage) -> IsoCertificate:
    """The certificate with every recovery row evaluated on its own, in order."""
    source, target = stage.source, stage.target
    vs = source.varset
    if vs != endo.varset:
        raise ValueError("source, target and endomorphism must share one varset")
    cert = IsoCertificate(source=source, target=target, endo=endo)
    cert.checks = _transport_checks(endo, source, target)

    lhs, rhs, unit = stage.displacement
    moved = endo.apply(lhs)
    residue = target.normal_form(moved + unit * MultiPoly.variable(vs, "T"))
    cert.checks += [
        _identity_entry("displacement-identity", moved, rhs),
        _identity_entry("displacement-congruence", residue, 0, f"maps to {-unit}*T in the target"),
    ]

    values: dict = {nm: target.normal_form(endo.images[nm]) for nm in vs.names}
    verdicts = {}
    rows = []
    for row in stage.rows:
        val = evaluate_in_ring(row.expr, values)
        values[row.symbol] = val
        verdicts[row.symbol] = val == target.normal_form(row.claimed)
        rows.append(
            {
                "element": str(row.claimed),
                "expression": f"{row.symbol} := {row.expr}",
                "pass": verdicts[row.symbol],
            }
        )
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


@pytest.mark.parametrize("step", SWEEP, ids=str)
def test_batched_certificate_equals_sequential(step):
    endo, stage = step.solve()
    cert = verify_step(endo, step)
    assert cert.passed
    assert cert.to_json() == sequential_certificate(endo, stage).to_json()


def _deletions(endo: PolyEndo):
    """endo with one term deleted from one image, for every term of every image."""
    for nm, img in endo.images.items():
        for exps in img.nums:
            terms = {e: c for e, c in img.terms.items() if e != exps}
            yield PolyEndo(endo.varset, {**endo.images, nm: MultiPoly(img.varset, terms)})


@pytest.mark.parametrize("step", MUTATED, ids=str)
def test_mutated_certificates_equal_sequential(step):
    endo, stage = step.solve()
    mutants = list(_deletions(endo))
    assert len(mutants) == sum(len(img.nums) for img in endo.images.values())
    failing_rows = 0
    for mutant in mutants:
        cert = verify_step(mutant, step)
        assert not cert.passed
        assert cert.to_json() == sequential_certificate(mutant, stage).to_json()
        failing_rows += any(entry["pass"] is False for entry in cert.recovery[0]["entries"])
    # the fallback runs: most deletions break a recovery row
    assert failing_rows > len(mutants) // 2


def test_a_failing_row_runs_the_sequential_chain(monkeypatch):
    calls = []

    def counting(p, env):
        calls.append(p)
        return evaluate_in_ring(p, env)

    monkeypatch.setattr(cylinders, "evaluate_in_ring", counting)
    step = FullStep(2, 3)
    endo, stage = step.solve()
    img = endo.images["T"]
    exps = next(iter(img.nums))
    terms = {e: c for e, c in img.terms.items() if e != exps}
    mutant = PolyEndo(endo.varset, {**endo.images, "T": MultiPoly(img.varset, terms)})
    assert not _verify(mutant, stage).passed
    assert calls == [row.expr for row in stage.rows]


@pytest.mark.parametrize("step", [FullStep(1, 1), FullStep(3, 2), DanielewskiStep(2, ["2", "X", "0"])], ids=str)
def test_a_passing_step_evaluates_no_row_alone(monkeypatch, step):
    def refused(p, env):
        raise AssertionError("evaluate_in_ring reached on a passing step")

    monkeypatch.setattr(cylinders, "evaluate_in_ring", refused)
    assert verify_step(solve_step(step), step).passed


def _raised(call) -> tuple[type, str] | None:
    try:
        call()
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)
    return None


def test_a_row_reading_a_later_row_raises_as_before():
    # s before t: row s := S - x^k*t reads t, which has no value yet
    step = FullStep(1, 1)
    endo, stage = step.solve()
    x, t, s, *rest = stage.rows
    swapped = replace(stage, rows=(x, s, t, *rest))
    want = _raised(lambda: sequential_certificate(endo, swapped))
    assert want == (ValueError, "no substitution image for variable 't'")
    assert _raised(lambda: _verify(endo, swapped)) == want


def test_a_row_reading_itself_raises_as_before():
    step = DanielewskiStep(2, ["1", "0", "X^2", "0"])
    endo, stage = step.solve()
    rows = list(stage.rows)
    xy = next(k for k, row in enumerate(rows) if row.symbol == "xy")
    # xy := xy, which no row before it defines
    rows[xy] = replace(rows[xy], expr=MultiPoly.variable(rows[xy].expr.varset, "xy"))
    bad = replace(stage, rows=tuple(rows))
    want = _raised(lambda: sequential_certificate(endo, bad))
    assert want == (ValueError, "no substitution image for variable 'xy'")
    assert _raised(lambda: _verify(endo, bad)) == want


def test_repeated_row_symbols_take_the_sequential_chain():
    # a second x row, claiming X, after every other row: the sequential
    # chain gives the later row's verdict for x; so does the certificate
    step = FullStep(1, 1)
    endo, stage = step.solve()
    x = stage.rows[0]
    wrong = replace(x, expr=x.expr + 1)
    for extra, passed in ((x, True), (wrong, False)):
        doubled = replace(stage, rows=(*stage.rows, extra))
        cert = _verify(endo, doubled)
        assert cert.passed is passed
        assert cert.to_json() == sequential_certificate(endo, doubled).to_json()


# ------------------------------------------------ one evaluation pass per step


def _spy(monkeypatch):
    """Record cylinders' substitute_all calls, evaluate_in_ring calls and normal_form arguments."""
    seen = {"substitute_all": [], "evaluate_in_ring": 0, "normal_form": []}
    evaluate_all, normal_form = cylinders.substitute_all, RingPresentation.normal_form

    def spy_evaluate_all(polys, images):
        seen["substitute_all"].append((list(polys), dict(images)))
        return evaluate_all(polys, images)

    def spy_evaluate(p, env):
        seen["evaluate_in_ring"] += 1
        return evaluate_in_ring(p, env)

    def spy_normal_form(ring, p, *args, **kwargs):
        seen["normal_form"].append(p)
        return normal_form(ring, p, *args, **kwargs)

    monkeypatch.setattr(cylinders, "substitute_all", spy_evaluate_all)
    monkeypatch.setattr(cylinders, "evaluate_in_ring", spy_evaluate)
    monkeypatch.setattr(RingPresentation, "normal_form", spy_normal_form)
    return seen


def _evaluated(seen) -> list[MultiPoly]:
    return [p for polys, _ in seen["substitute_all"] for p in polys]


@pytest.mark.parametrize("step", MUTATED, ids=str)
def test_a_passing_step_is_certified_in_one_evaluation_pass(monkeypatch, step):
    seen = _spy(monkeypatch)
    cert = verify_step(solve_step(step), step)
    assert cert.passed
    endo, stage = cert.endo, cert.endo._solved[1]
    # one call, at the map's own polynomial images and the rows' claims
    ((polys, images),) = seen["substitute_all"]
    assert all(isinstance(img, MultiPoly) for img in images.values())
    assert {nm: images[nm] for nm in endo.varset.names} == endo.images
    assert seen["evaluate_in_ring"] == 0
    # no generator image is reduced, and the t row is not evaluated
    assert not any(p == img for p in seen["normal_form"] for img in endo.images.values())
    (t,) = [row for row in stage.rows if row.symbol == "t"]
    assert not any(p is t.expr for p in polys)
    # the relations, the displacement's lhs and every row but t
    assert len(polys) == len(stage.source.relation_polys()) + 1 + len(stage.rows) - 1


def _with_row(stage: RecoveryStage, symbol: str, expr: MultiPoly) -> RecoveryStage:
    """stage with the expression of its row named symbol replaced by expr."""
    return replace(stage, rows=tuple(replace(row, expr=expr) if row.symbol == symbol else row for row in stage.rows))


@pytest.mark.parametrize("step", MUTATED, ids=str)
def test_a_t_row_that_is_not_the_displacement_is_evaluated(monkeypatch, step):
    endo, stage = step.solve()
    (t,) = [row for row in stage.rows if row.symbol == "t"]
    # the source's first relation reads S, and the map moves it into the
    # target's ideal, so the row still claims T rightly
    rel = stage.source.relation_polys()[0]
    assert any(exps[stage.source.varset.index("S")] for exps in rel.nums)
    seen = _spy(monkeypatch)
    for expr, passed in ((2 * t.expr, False), (t.expr + rel.rename(t.expr.varset), True)):
        seen["substitute_all"].clear()
        hand = _with_row(stage, "t", expr)
        cert = _verify(endo, hand)
        assert cert.passed is passed
        assert cert.to_json() == sequential_certificate(endo, hand).to_json()
        assert any(p is expr for p in _evaluated(seen))


@pytest.mark.parametrize("step", MUTATED, ids=str)
def test_a_tampered_t_image_gets_the_sequential_verdicts(step):
    endo, stage = step.solve()
    tampered = PolyEndo(endo.varset, {**endo.images, "T": endo.images["T"] + 1})
    # the rows that read the T-image itself, besides t: none of them fails
    # when it takes the tamper back, so only the congruence (the t row's
    # verdict) fails among the batched entries
    (reader,) = [
        row for row in stage.rows
        if row.symbol != "t" and any(exps[row.expr.varset.index("T")] for exps in row.expr.nums)
    ]
    for hand in (stage, _with_row(stage, reader.symbol, reader.expr - 1)):
        cert = _verify(tampered, hand)
        checks = {c["name"]: c["pass"] for c in cert.checks}
        assert checks["displacement-congruence"] is False
        assert all(ok for name, ok in checks.items() if name.startswith("relation-transport"))
        assert not cert.passed
        assert cert.to_json() == sequential_certificate(tampered, hand).to_json()
