"""Acceptance gate: the fourteen contract criteria, one pass/fail line each.

Every comparison is exact rational equality; there are no tolerances
anywhere.  Each criterion prints its verdict to the real stdout (capture
temporarily disabled) so the lines always appear in the pytest output.
"""

from __future__ import annotations

from random import Random

import pytest

from lndfilt.automorphisms import (
    AutParams,
    build_auto,
    check_params,
    compose_params,
    inverse_params,
    verify_auto,
)
from lndfilt.checks import (
    al_chain_check,
    degree_consistency,
    graded_relations_check,
    kernel_check,
    random_element,
)
from lndfilt.cylinders import (
    DanielewskiStep,
    FullStep,
    PolyEndo,
    compose_chain,
    compose_danielewski_chain,
    solve_step,
    verify_step,
)
from lndfilt.derivations import canonical_derivation
from lndfilt.graded import gr_leading, hat_ideal_tops
from lndfilt.polynomials import MultiPoly, parse_poly
from lndfilt.rings import RingPresentation, toy_ring

from util import grid_rings, mixed_small_rings, random_poly

from test_cylinders import SIZE_DISPLAY, SIZE_P, TWIST_DISPLAY, TWIST_DISPLAY_T


@pytest.fixture
def report(capfd):
    def _report(num: int, name: str, ok: bool, note: str = "") -> None:
        line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if note:
            line += f"  [{note}]"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_01_toy_goldens(report):
    ring = toy_ring()
    D = canonical_derivation(ring)
    gens = ring.generators()
    ok = [D.degree(gens[nm]) for nm in ("X", "S", "Y", "Z")] == [0, 1, 2, 4]
    ok = ok and D(gens["S"]) == ring.element("X^3")
    ok = ok and D.iterate(gens["Y"], 3).is_zero()
    ok = ok and D.iterate(gens["Z"], 5).is_zero()
    ok = ok and not D.iterate(gens["Z"], 4).is_zero()
    report(1, "toy-goldens", ok)


def test_criterion_02_grid_goldens(report):
    bad = []
    for ring in grid_rings():
        D = canonical_derivation(ring)
        gens = ring.generators()
        n, e, d, m = ring.n, ring.e, ring.d, ring.m
        checks = [
            D(gens["S"]) == ring.element(f"X^{n + e}"),
            D.degree(gens["Y"]) == d,
            D.degree(gens["Z"]) == m * d,
            D.iterate(gens["Y"], d + 1).is_zero(),
            D.iterate(gens["Z"], m * d + 1).is_zero(),
        ]
        if not all(checks):
            bad.append(ring.fingerprint())
    report(2, "grid-goldens", not bad, note=f"{len(grid_rings())} rings")


def test_criterion_03_degree_oracle_equivalence(report):
    bad = []
    for ring in grid_rings():
        rep = degree_consistency(ring, samples=200, degree_bound=10, rng=Random(5))
        if not rep.passed:
            bad.append(rep.ring)
    report(3, "degree-oracle-equivalence", not bad, note="200 samples x 24 rings")


def test_criterion_04_rewriting_confluence(report):
    rng = Random(11)
    mismatches = 0
    rings = grid_rings() + mixed_small_rings()
    for ring in rings:
        for _ in range(500):
            p = random_poly(rng, ring.varset, max_terms=6, max_exp=4)
            if ring.normal_form(p, strategy="s_first") != ring.normal_form(
                p, strategy="y_first"
            ):
                mismatches += 1
    report(
        4,
        "rewriting-confluence",
        mismatches == 0,
        note=f"500 polynomials x {len(rings)} rings",
    )


def test_criterion_05_graded_properties(report):
    rng = Random(17)
    rings = [toy_ring(), grid_rings()[5], grid_rings()[20], mixed_small_rings()[-1]]
    violations = []
    for ring in rings:
        for _ in range(40):
            a = random_element(ring, rng, 8, x_cap=4)
            b = random_element(ring, rng, 8, x_cap=4)
            if a.is_zero() or b.is_zero():
                continue
            # P1: degrees add and leading classes multiply, unless the top cancels
            ab = a * b
            top = gr_leading(a) * gr_leading(b)
            total = a.degree() + b.degree()
            if top.part.is_zero():
                if not (ab.is_zero() or ab.degree() < total):
                    violations.append(f"P1/P4 product {ring.fingerprint()}")
            elif ab.is_zero() or ab.degree() != total or gr_leading(ab) != top:
                violations.append(f"P1 {ring.fingerprint()}")
            # P2: lower-degree noise is invisible to the leading class
            if a.degree() > 0:
                noise = ring.element("X^2") * (a * a - a)  # anything; then truncate
                noise = _truncate_below(ring, noise, a.degree())
                if gr_leading(a + noise) != gr_leading(a):
                    violations.append(f"P2 {ring.fingerprint()}")
            # P3: same-degree sums with no drop add their classes
            two_a = a + a
            if gr_leading(two_a) != gr_leading(a) + gr_leading(a):
                violations.append(f"P3 {ring.fingerprint()}")
            # P4 constructed: a and -a + lower noise cancel at the top
            lower = _truncate_below(ring, b, a.degree())
            minus = -a + lower
            if not minus.is_zero():
                s = gr_leading(a) + gr_leading(minus) if minus.degree() == a.degree() else None
                summed = a + minus
                if minus.degree() == a.degree():
                    if not s.part.is_zero():
                        violations.append(f"P4 classes {ring.fingerprint()}")
                    if not (summed.is_zero() or summed.degree() < a.degree()):
                        violations.append(f"P4 degree {ring.fingerprint()}")
    report(5, "graded-properties", not violations, note="P1-P4 randomized")


def _truncate_below(ring, elem, bound):
    """Keep only the canonical-form terms of degree strictly below bound."""
    kept = {
        exps: c
        for exps, c in elem.rep.terms.items()
        if ring.monomial_degree(exps) < bound
    }
    return ring.normal_form(MultiPoly(ring.varset, kept))


def test_criterion_06_graded_relations(report):
    bad = [
        r.ring for r in map(graded_relations_check, grid_rings()) if not r.passed
    ]
    report(6, "graded-relations", not bad, note="24 rings")


def test_criterion_07_toy_hat_ideal_tops(report):
    ring = toy_ring()
    got = set(hat_ideal_tops(ring))
    want = {
        parse_poly("X^2*Y - S^2", ring.varset),
        parse_poly("Y^2 - X*Z", ring.varset),
    }
    report(7, "toy-hat-ideal-tops", got == want)


def test_criterion_08_kernel_equals_x_span(report):
    bad = []
    for ring in grid_rings():
        rep = kernel_check(ring, degree_bound=8)
        if not rep.passed:
            bad.append(rep.ring)
    report(8, "kernel-equals-x-span", not bad, note="degree <= 8, 24 rings")


def test_criterion_09_al_chain(report):
    bad = []
    for ring in grid_rings():
        rep = al_chain_check(ring)
        if not rep.passed:
            bad.append(rep.ring)
    report(9, "al-chain", not bad, note="24 rings")


def test_criterion_10_twist_step_displays(report):
    step = FullStep(1, 1)
    endo = solve_step(step)
    vs = step.source_ring().varset
    ok = all(endo.images[nm] == parse_poly(text, vs) for nm, text in TWIST_DISPLAY.items())
    printed = parse_poly(TWIST_DISPLAY_T, vs)
    note = ""
    if endo.images["T"] != printed:
        diff = endo.images["T"] - printed
        note = f"printed T-image differs from solver by {diff}; solver value verified"
    cert = verify_step(endo, step)
    ok = ok and cert.passed
    report(10, "twist-step-displays", ok, note=note)


def test_criterion_11_size_step_displays(report):
    step = DanielewskiStep(1, SIZE_P)
    endo = solve_step(step)
    vs = step.source_ring().varset
    ok = all(
        endo.images[nm] == parse_poly(SIZE_DISPLAY[nm], vs) for nm in ("X", "S", "Y")
    )
    # at f = 0 the printed T-image matches the solver exactly as well
    ok = ok and endo.images["T"] == parse_poly(SIZE_DISPLAY["T"], vs)
    cert = verify_step(endo, step)
    ok = ok and cert.passed
    rows = cert.recovery[0]["entries"]
    y_row = [r for r in rows if r["element"] == "Y"]
    ok = ok and len(y_row) == 1 and y_row[0]["pass"] is True
    report(11, "size-step-displays", ok, note="y-recovery identity included")


def test_criterion_12_composed_chains(report):
    _, cert_full = compose_chain(1, 1, 3)
    _, cert_size = compose_danielewski_chain(1, 3, SIZE_P)
    ok = cert_full.passed and cert_size.passed
    ok = ok and cert_full.target.e == 3 and cert_size.target.n == 3
    report(12, "composed-chains", ok, note="(1,1)->(1,3) and sizes 1->3")


def test_criterion_13_automorphisms(report):
    ring = toy_ring()
    identity = AutParams.make(1, 1, "0")
    ok = verify_auto(ring, identity).passed
    prm = AutParams.make(8, 16, "0")  # (t^3, t^4) at t = 2
    ok = ok and not check_params(ring, prm)
    ok = ok and verify_auto(ring, prm).passed
    inv = inverse_params(ring, prm)
    ok = ok and compose_params(ring, inv, prm) == identity
    auto = build_auto(ring, prm)
    back = build_auto(ring, inv)
    gens = ring.generators()
    ok = ok and all(back.apply(auto.apply(gens[nm])) == gens[nm] for nm in ring.varset.names)
    ok = ok and bool(check_params(ring, AutParams.make(1, 2, "0")))
    report(13, "automorphisms", ok, note="t=2 family plus rejection of (1,2)")


def test_criterion_14_mutation_sensitivity(report):
    step = FullStep(1, 1)
    endo = solve_step(step)
    img = endo.images["T"]
    survived = []
    for exps in img.terms:
        dropped = MultiPoly(img.varset, {e: c for e, c in img.terms.items() if e != exps})
        mutated = PolyEndo(endo.varset, {**endo.images, "T": dropped})
        cert = verify_step(mutated, step)
        residual_seen = any(
            c["pass"] is False and "residual" in c["detail"] for c in cert.checks
        )
        if cert.passed or not residual_seen:
            survived.append(exps)
    report(
        14,
        "mutation-sensitivity",
        not survived,
        note=f"all {len(img.terms)} single-term deletions rejected",
    )
