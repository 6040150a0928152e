"""Cylinder step solver, verifier, chains and the cancellation report."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from lndfilt import cylinders, rings
from lndfilt.cylinders import (
    DanielewskiStep,
    FullStep,
    PolyEndo,
    _verify,
    cancellation_report,
    compose_chain,
    compose_danielewski_chain,
    solve_step,
    verify_step,
)
from lndfilt.polynomials import MultiPoly, parse_poly
from lndfilt.rings import RingPresentation


# the published worked example for the twist step (1,1) -> (1,2); the
# T-image line is reproduced as printed and is NOT what the solver returns
TWIST_DISPLAY = {
    "X": "X",
    "S": "S + X^2*T",
    "Y": "Y + 2*X*S*T + X^3*T^2",
    "Z": "X*Z + 4*S*Y*T - X*T + 2*X^2*Y*T^2 + 4*X*S^2*T^2 + 4*X^3*S*T^3 + X^5*T^4",
}
TWIST_DISPLAY_T = (
    "Y*Z + 6*X*S*Z*T + 3*Y*T + 2*X*Y^2*T^2 + 12*S^2*Y*T^2 + X^3*Z*T^2"
    " - X^3*T^3 + 12*X^2*S*Y*T^3 + 8*X*S^3*T^3 + 3*X^4*Y*T^4"
    " + 12*X^3*S^2*T^4 + 6*X^5*S*T^5 + X^7*T^6"
)

# the published worked example for the size step B(1,P) -> B(2,P) with
# P = S^4 + X^2*S^2 + 1 (the vanishing-f instance of the printed display)
SIZE_P = ["1", "0", "X^2", "0"]
SIZE_DISPLAY = {
    "X": "X",
    "S": "S + X*T",
    "Y": "X*Y + X^3*T^4 + 4*X^2*S*T^3 + 6*X*S^2*T^2 + 4*S^3*T + X^3*T^2 + 2*X^2*S*T",
    "T": "S*Y + 5*X*Y*T - 2*X*S^2*T + 3*X^2*S*T^2 + 10*S^3*T^2 + X^3*T^3"
    " + 10*X*S^2*T^3 + 5*X^2*S*T^4 + X^3*T^5",
}


def test_twist_step_images_match_published_display():
    step = FullStep(1, 1)
    endo = solve_step(step)
    vs = step.source_ring().varset
    for nm, text in TWIST_DISPLAY.items():
        assert endo.images[nm] == parse_poly(text, vs)


def test_twist_step_t_image_differs_from_display_by_one_term():
    step = FullStep(1, 1)
    endo = solve_step(step)
    vs = step.source_ring().varset
    printed = parse_poly(TWIST_DISPLAY_T, vs)
    assert len(printed.terms) == 13
    assert len(endo.images["T"].terms) == 14
    assert endo.images["T"] - printed == parse_poly("-2*X*S*T^2", vs)


def test_printed_t_image_fails_verification():
    step = FullStep(1, 1)
    endo = solve_step(step)
    vs = step.source_ring().varset
    printed = PolyEndo(vs, {**endo.images, "T": parse_poly(TWIST_DISPLAY_T, vs)})
    cert = verify_step(printed, step)
    assert not cert.passed
    failed = {c["name"]: c for c in cert.checks if c["pass"] is False}
    assert "displacement-identity" in failed
    assert "residual" in failed["displacement-identity"]["detail"]


def test_twist_step_verifies():
    step = FullStep(1, 1)
    cert = verify_step(solve_step(step), step)
    assert cert.passed
    assert all(c["pass"] for c in cert.checks if c["pass"] is not None)
    names = [c["name"] for c in cert.checks]
    assert "relation-transport-eliminated" in names
    data = cert.to_json_dict()
    assert data["pass"] is True
    assert data["endo"]["vars"] == ["X", "S", "Y", "Z", "T"]


def test_twist_step_rings_parse_no_text(monkeypatch):
    # the fixed P and Q of the twist steps are built once, not parsed per ring
    step = FullStep(2, 3)
    parsed = [RingPresentation.full(2, e, ["1", "0"], ["0", "0"], cylinder=True) for e in (3, 4)]
    parses = []
    for module in (rings, cylinders):
        real = module.parse_poly
        monkeypatch.setattr(module, "parse_poly", lambda *args, real=real: parses.append(args) or real(*args))
    made = [step.source_ring(), step.target_ring()]
    assert made == parsed
    assert [ring.fingerprint() for ring in made] == [ring.fingerprint() for ring in parsed]
    assert verify_step(solve_step(step), step).passed
    assert parses == []


def test_twist_step_congruence_value():
    step = FullStep(1, 1)
    endo = solve_step(step)
    tgt = step.target_ring()
    vs = tgt.varset
    moved = endo.apply(parse_poly("Y*Z - X*T", vs))
    assert tgt.normal_form(moved) == tgt.element(parse_poly("-4*T", vs))


def test_recovery_chain_shape():
    step = FullStep(1, 1)
    cert = verify_step(solve_step(step), step)
    rows = cert.to_json_dict()["recovery"][0]["entries"]
    assert [r["element"] for r in rows] == [
        "X",
        "T",
        "S",
        "Y",
        "X*Z",
        "Y*Z",
        "S*Z",
        "Z",
    ]
    assert all(":=" in r["expression"] for r in rows)
    assert all(r["pass"] for r in rows)


TWIST_PARAMS = [(2, 1), (1, 2), (3, 2), (2, 3)]
SIZE_PARAMS = [
    (2, ["5", "X^3"]),
    (1, ["-2", "X", "0"]),
    (3, ["1", "0", "X^2", "0"]),
]


@pytest.mark.parametrize("n,e", TWIST_PARAMS)
def test_general_twist_steps_verify(n, e):
    step = FullStep(n, e)
    endo = solve_step(step)
    vs = step.source_ring().varset
    assert endo.images["S"] == parse_poly(f"S + X^{n + e}*T", vs)
    assert verify_step(endo, step).passed


def test_size_step_images_match_published_display():
    step = DanielewskiStep(1, SIZE_P)
    endo = solve_step(step)
    vs = step.source_ring().varset
    for nm, text in SIZE_DISPLAY.items():
        assert endo.images[nm] == parse_poly(text, vs)


def test_size_step_verifies():
    step = DanielewskiStep(1, SIZE_P)
    cert = verify_step(solve_step(step), step)
    assert cert.passed
    rows = cert.to_json_dict()["recovery"][0]["entries"]
    assert [r["element"] for r in rows] == ["X", "T", "S", "X*Y", "S*Y", "Y"]


@pytest.mark.parametrize("n,coeffs", SIZE_PARAMS)
def test_general_size_steps_verify(n, coeffs):
    step = DanielewskiStep(n, coeffs)
    cert = verify_step(solve_step(step), step)
    assert cert.passed


def test_size_step_congruence_value():
    step = DanielewskiStep(1, SIZE_P)
    endo = solve_step(step)
    tgt = step.target_ring()
    vs = tgt.varset
    moved = endo.apply(parse_poly("Y*S - X*T", vs))
    # d = 4 and c = 1, so the displacement reduces to -4*T
    assert tgt.normal_form(moved) == tgt.element(parse_poly("-4*T", vs))


def test_size_step_rejects_bad_shape():
    with pytest.raises(ValueError):
        DanielewskiStep(1, ["0", "0", "X^2", "0"])  # constant term vanishes
    with pytest.raises(ValueError):
        DanielewskiStep(1, ["1", "1"])  # S-coefficient not divisible by X
    with pytest.raises(ValueError):
        DanielewskiStep(0, ["1", "0"])


def test_twist_step_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FullStep(0, 1)
    with pytest.raises(ValueError):
        FullStep(1, 0)


def test_single_step_chain_matches_solver():
    endo, cert = compose_chain(2, 1, 2)
    assert cert.passed
    assert endo == solve_step(FullStep(2, 1))
    # single-step chains keep the congruence check alive
    by_name = {c["name"]: c["pass"] for c in cert.checks}
    assert by_name["displacement-congruence"] is True


def test_size_chain_composes_and_verifies():
    endo, cert = compose_danielewski_chain(1, 3, SIZE_P)
    assert cert.passed
    by_name = {c["name"]: c["pass"] for c in cert.checks}
    assert by_name["relation-transport-1"] is True
    assert by_name["displacement-congruence"] is None
    # the composite equals the two steps substituted through each other
    first = solve_step(DanielewskiStep(1, SIZE_P))
    second = solve_step(DanielewskiStep(2, SIZE_P))
    assert endo == second.compose(first)
    # stage boundaries were checked along the way
    stage1 = cert.to_json_dict()["recovery"][0]["entries"]
    assert stage1[-1]["element"] == "(stage boundary)"
    assert stage1[-1]["pass"] is True


def test_chain_rejects_bad_ranges():
    with pytest.raises(ValueError):
        compose_chain(1, 2, 2)
    with pytest.raises(ValueError):
        compose_chain(1, 0, 2)
    with pytest.raises(ValueError):
        compose_danielewski_chain(2, 2, SIZE_P)


def test_mutated_t_image_fails_all_the_way():
    step = DanielewskiStep(1, SIZE_P)
    endo = solve_step(step)
    img = endo.images["T"]
    exps = next(iter(img.terms))
    dropped = MultiPoly(img.varset, {e: c for e, c in img.terms.items() if e != exps})
    mutated = PolyEndo(endo.varset, {**endo.images, "T": dropped})
    cert = verify_step(mutated, step)
    assert not cert.passed
    failed = [c["name"] for c in cert.checks if c["pass"] is False]
    assert "displacement-identity" in failed


def _direct_eliminated_entry(endo, step):
    """relation-transport-eliminated by expansion: phi(E), then S -> Q - X^e*Z."""
    source, target = step.source_ring(), step.target_ring()
    vs = target.varset
    images = {nm: MultiPoly.variable(vs, nm) for nm in vs.names}
    images["S"] = target.q_poly() - MultiPoly.variable(vs, "X") ** target.e * MultiPoly.variable(vs, "Z")
    got = endo.apply(source.eliminated_relation()).substitute(images)
    want = target.eliminated_relation()
    ok = got == want
    return ok, "exact identity after eliminating S" if ok else f"residual {got - want}"


def test_eliminated_check_is_derived_not_expanded(monkeypatch):
    # every polynomial the certificates push through a map, whether by
    # PolyEndo.apply or by a substitute_all call of the cylinders module
    seen = []
    original_apply, original_all = PolyEndo.apply, cylinders.substitute_all

    def spying_apply(endo, p):
        seen.append(p)
        return original_apply(endo, p)

    def spying_all(polys, images):
        seen.extend(polys)
        return original_all(polys, images)

    monkeypatch.setattr(PolyEndo, "apply", spying_apply)
    monkeypatch.setattr(cylinders, "substitute_all", spying_all)
    step = FullStep(1, 1)
    certs = [verify_step(solve_step(step), step), compose_chain(1, 1, 3)[1]]
    eliminated = [FullStep(1, e).source_ring().eliminated_relation() for e in (1, 2, 3)]
    # the transports are evaluated: R(1, 1)'s two relations by the single
    # step, the chain's first step and the composite, and the first one,
    # which does not involve e, by the chain's second step as well
    relations = step.source_ring().relation_polys()
    assert [sum(p == rel for p in seen) for rel in relations] == [4, 3]
    assert not any(p == rel for p in seen for rel in eliminated)
    for cert in certs:
        assert cert.passed
        entry = next(c for c in cert.checks if c["name"] == "relation-transport-eliminated")
        assert entry == {
            "name": "relation-transport-eliminated",
            "pass": True,
            "detail": "exact identity after eliminating S",
        }


def test_eliminated_check_agrees_with_expansion_under_deletions():
    # deleting one term of the S, Y or Z image breaks a relation transport,
    # so the check falls back to the expansion; the unmutated images (None)
    # take the derived route.  E involves no S, so it survives S deletions.
    step = FullStep(1, 1)
    endo = solve_step(step)
    cases = [(None, None)] + [
        (nm, exps) for nm in ("S", "Y", "Z") for exps in endo.images[nm].terms
    ]
    for nm, exps in cases:
        images = dict(endo.images)
        if nm is not None:
            img = images[nm]
            images[nm] = MultiPoly(img.varset, {e: c for e, c in img.terms.items() if e != exps})
        mutated = PolyEndo(endo.varset, images)
        cert = verify_step(mutated, step)
        entry = next(c for c in cert.checks if c["name"] == "relation-transport-eliminated")
        assert (entry["pass"], entry["detail"]) == _direct_eliminated_entry(mutated, step)
        assert entry["pass"] is (nm in (None, "S"))
        if nm is not None:
            assert not cert.passed
    assert len(cases) == 13


def test_verify_against_wrong_target_fails():
    endo = solve_step(FullStep(1, 1))
    cert = verify_step(endo, FullStep(1, 2))
    assert not cert.passed


def test_cancellation_report_shape():
    report = cancellation_report(2, 1, 2)
    assert report["cylinders_isomorphic"] is True
    assert report["bases_distinct"] is True
    assert report["certificate"]["pass"] is True
    prints = [entry["ring"] for entry in report["base_fingerprints"]]
    assert prints[0] != prints[1]
    assert "e=1" in prints[0] and "e=2" in prints[1]
    # the verdict is computed from the graded relations of the two bases
    tops = [entry["hat_ideal_tops"] for entry in report["base_fingerprints"]]
    assert tops == [["X^2*Y - S^2", "-X*Z + Y^2"], ["X^2*Y - S^2", "-X^2*Z + Y^2"]]
    assert cancellation_report(1, 3, 1)["base_fingerprints"][0]["hat_ideal_tops"] == [
        "X*Y - S^2",
        "-X^3*Z + Y^2",
    ]
    with pytest.raises(ValueError):
        cancellation_report(2, 1, 1)


def test_poly_endo_json_roundtrip():
    endo = solve_step(FullStep(1, 1))
    again = PolyEndo.from_json(endo.to_json())
    assert again == endo
    with pytest.raises(ValueError):
        PolyEndo.from_json("[1, 2]")
    with pytest.raises(ValueError):
        PolyEndo.from_json("{\"vars\": [\"X\"]}")
    with pytest.raises(ValueError):
        PolyEndo.from_json("not json")


def test_poly_endo_json_is_strict():
    good = {"vars": ["X", "S"], "images": {"X": "X", "S": "X^2 + S"}}
    assert PolyEndo.from_json_dict(good).to_json_dict() == good
    cases = [
        ({"vars": "XS", "images": {"X": "X", "S": "S"}}, "'vars' must be a list"),
        ({"vars": ["X", 1], "images": {"X": "X"}}, "'vars' must be a list"),
        ({"vars": ["X", "X"], "images": {"X": "X"}}, "'vars': duplicate"),
        ({"vars": ["X", "S"], "images": {"X": "X", "S": "S", "Q": "X"}}, "'images' must be an object"),
        ({"vars": ["X", "S"], "images": {"X": "X"}}, "'images' must be an object"),
        ({"vars": ["X", "S"], "images": ["X", "S"]}, "'images' must be an object"),
        ({"vars": ["X", "S"], "images": {"X": "X", "S": 3}}, "image 'S' is 3"),
        ({"vars": ["X", "S"], "images": {"X": "X", "S": None}}, "image 'S' is None"),
        ({"vars": ["X", "S"], "images": {"X": "X", "S": "S + W"}}, "image 'S': unknown variable 'W'"),
        ({"vars": ["X"], "images": {"X": "X"}, "note": 1}, r"unknown keys \['note'\]"),
        ({"images": {"X": "X"}}, "lacks key 'vars'"),
    ]
    for data, message in cases:
        with pytest.raises(ValueError, match=message):
            PolyEndo.from_json_dict(data)


def test_poly_endo_validates_images():
    ring = RingPresentation.full(1, 1, ["1", "0"], ["0", "0"], cylinder=True)
    vs = ring.varset
    images = {nm: parse_poly(nm, vs) for nm in vs.names}
    del images["T"]
    with pytest.raises(ValueError):
        PolyEndo(vs, images)


def test_poly_endo_refuses_images_outside_its_varset():
    endo = solve_step(FullStep(1, 1))
    vs = endo.varset
    x, t = (MultiPoly.variable(vs, nm) for nm in ("X", "T"))
    with pytest.raises(ValueError, match=r"outside VarSet\('X', 'S', 'Y', 'Z', 'T'\): \['Q', 't'\]"):
        PolyEndo(vs, {**endo.images, "Q": x, "t": t})
    # as the JSON reader does
    data = endo.to_json_dict()
    data["images"]["t"] = "T"
    with pytest.raises(ValueError, match="exactly"):
        PolyEndo.from_json_dict(data)


# ------------------------------------------------- one solve per certificate


@pytest.fixture
def counters(monkeypatch):
    """Record every step solve, ring construction and relation build, and
    every call of the ring methods that a derived certificate entry spares."""
    seen = SimpleNamespace(solves=[], rings=[], builds=[], derived=[])
    for cls in (FullStep, DanielewskiStep):

        def solve(step, original=cls.solve):
            seen.solves.append(step)
            return original(step)

        monkeypatch.setattr(cls, "solve", solve)
    init, build = RingPresentation.__init__, RingPresentation._build_relations

    def counting_init(ring, *args, **kwargs):
        seen.rings.append(ring)
        init(ring, *args, **kwargs)

    def counting_build(ring):
        seen.builds.append(ring)
        return build(ring)

    monkeypatch.setattr(RingPresentation, "__init__", counting_init)
    monkeypatch.setattr(RingPresentation, "_build_relations", counting_build)
    for name in ("eliminated_relation", "eliminate_s", "generator"):

        def spared(ring, *args, name=name, original=getattr(RingPresentation, name)):
            seen.derived.append(name)
            return original(ring, *args)

        monkeypatch.setattr(RingPresentation, name, spared)

    def clear():
        for log in (seen.solves, seen.rings, seen.builds, seen.derived):
            log.clear()

    seen.clear = clear
    return seen


# each step with another step over the same variables
STEP_PAIRS = [
    (lambda: FullStep(3, 3), lambda: FullStep(3, 2)),
    (lambda: DanielewskiStep(2, SIZE_P), lambda: DanielewskiStep(1, SIZE_P)),
]


@pytest.mark.parametrize("make,_", STEP_PAIRS, ids=["full", "danielewski"])
def test_solve_and_verify_solve_once(counters, make, _):
    step = make()
    counters.clear()
    cert = verify_step(solve_step(step), step)
    assert cert.passed
    assert counters.solves == [step]
    assert len(counters.rings) == 2
    assert len(counters.builds) == len({id(ring) for ring in counters.builds})
    # the eliminated entry and the stage-2 rows are derived, not recomputed
    assert counters.derived == []


ALL_STEPS = (
    [FullStep(1, 1), FullStep(3, 3)]
    + [FullStep(n, e) for n, e in TWIST_PARAMS]
    + [DanielewskiStep(1, SIZE_P), DanielewskiStep(2, SIZE_P)]
    + [DanielewskiStep(n, coeffs) for n, coeffs in SIZE_PARAMS]
)


@pytest.mark.parametrize("step", ALL_STEPS, ids=str)
def test_each_output_names_a_row_claiming_its_generator(step):
    # the premise of the derived stage-2 rows in cylinders._verify
    _, stage = step.solve()
    claimed = {row.symbol: row.claimed for row in stage.rows}
    vs = stage.source.varset
    for nm in vs.names:
        assert claimed[nm.lower()] == MultiPoly.variable(vs, nm)
    assert (stage.source, stage.target) == (step.source_ring(), step.target_ring())


# the recovery varset of each kind: the generators, then x, t, s, then every
# row symbol but the last
RECOVERY_VARSETS = {
    FullStep: ("X", "S", "Y", "Z", "T", "x", "t", "s", "y", "xz", "yz", "sz"),
    DanielewskiStep: ("X", "S", "Y", "T", "x", "t", "s", "xy", "sy"),
}


@pytest.mark.parametrize("step", ALL_STEPS, ids=str)
def test_recovery_varset_is_derived_from_the_rows(step):
    _, stage = step.solve()
    symbols = tuple(row.symbol for row in stage.rows)
    assert symbols[:3] == ("x", "t", "s")
    names = (*stage.source.varset.names, *symbols[:-1])
    assert names == RECOVERY_VARSETS[type(step)]
    assert all(row.expr.varset.names == names for row in stage.rows)


def test_rings_of_one_shape_and_steps_of_one_kind_share_their_varsets():
    # one VarSet object per ring shape, and one recovery varset per step kind
    for one, other in ((FullStep(1, 1), FullStep(3, 2)), (DanielewskiStep(2, SIZE_P), DanielewskiStep(5, SIZE_P))):
        assert one.source_ring().varset is other.target_ring().varset
        rows = [row for step in (one, other) for row in step.solve()[1].rows]
        assert len({id(row.expr.varset) for row in rows}) == 1
    toy, other = RingPresentation.full(2, 1, ["0", "0"], ["0", "0"]), RingPresentation.full(1, 2, ["X", "0", "0"], ["1", "0"])
    assert toy.varset is other.varset is toy.base().varset
    assert toy.varset is not toy.with_cylinder().varset


@pytest.mark.parametrize("make,_", STEP_PAIRS, ids=["full", "danielewski"])
def test_a_split_that_disagrees_is_refused(monkeypatch, make, _):
    # the kind's split of the T-image is checked against the forced T-image
    step = make()
    kind = type(step)
    original = kind._forced

    def shifted(self, *args):
        images, split, pieces = original(self, *args)
        return images, split + 1, pieces

    monkeypatch.setattr(kind, "_forced", shifted)
    with pytest.raises(RuntimeError, match="T-image split disagrees with the solver"):
        step.solve()


@pytest.mark.parametrize("make,make_other", STEP_PAIRS, ids=["full", "danielewski"])
def test_endos_from_elsewhere_are_solved_for(counters, make, make_other):
    step, other = make(), make_other()
    endo = solve_step(step)
    vs = endo.varset
    img = endo.images["T"]
    exps = next(iter(img.terms))
    dropped = MultiPoly(vs, {e: c for e, c in img.terms.items() if e != exps})
    identity = PolyEndo(vs, {nm: MultiPoly.variable(vs, nm) for nm in vs.names})
    cases = {
        "mutated": PolyEndo(vs, {**endo.images, "T": dropped}),
        "json": PolyEndo.from_json(endo.to_json()),
        "composed": endo.compose(identity),
        "other step": solve_step(other),
    }
    # read from JSON, the endomorphism holds a fresh VarSet of equal names
    assert cases["json"].varset is not vs and cases["json"].varset == vs
    for name, candidate in cases.items():
        counters.clear()
        cert = verify_step(candidate, step)
        assert counters.solves == [step], name
        assert cert.passed is (name in ("json", "composed")), name
        assert cert.to_json_dict() == _verify(candidate, step.solve()[1]).to_json_dict(), name


def test_changed_images_of_a_solved_endo_are_checked(counters):
    # the stage an endo carries depends on the step alone, so a changed image
    # reuses it, and every check still runs on the changed image
    step = FullStep(3, 3)
    endo = solve_step(step)
    img = endo.images["T"]
    exps = next(iter(img.terms))
    endo.images["T"] = MultiPoly(img.varset, {e: c for e, c in img.terms.items() if e != exps})
    counters.clear()
    cert = verify_step(endo, step)
    assert counters.solves == []
    assert not cert.passed
    assert cert.to_json_dict() == _verify(endo, step.solve()[1]).to_json_dict()
