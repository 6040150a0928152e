"""Report-producing checks: degree consistency, kernel, filtration chain."""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt.checks import (
    _row_rank,
    al_chain_check,
    degree_consistency,
    graded_property_check,
    graded_relations_check,
    kernel_check,
    random_element,
)
from lndfilt.derivations import Derivation
from lndfilt.graded import gr_leading
from lndfilt.rings import RingPresentation, basis_monomials, toy_ring

from util import grid_rings


def test_degree_consistency_toy(toy):
    report = degree_consistency(toy, samples=60, rng=Random(7))
    assert report.passed, report.witnesses
    assert report.check == "degree-consistency"


def test_degree_consistency_danielewski():
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"])
    report = degree_consistency(dan, samples=40, degree_bound=8, rng=Random(7))
    assert report.passed, report.witnesses


def test_degree_consistency_records_only_budget_overruns(toy, monkeypatch):
    # a budget overrun is a finding about the ring; any other error is a
    # fault in the program and propagates
    degree = Derivation.degree
    monkeypatch.setattr(Derivation, "degree", lambda self, a, bound=None: degree(self, a, 0))
    report = degree_consistency(toy, samples=20, rng=Random(7))
    assert report.witnesses
    assert all("iteration failed: derivation budget 0 exceeded" in w for w in report.witnesses)

    def broken(self, a, bound=None):
        raise TypeError("broken degree")

    monkeypatch.setattr(Derivation, "degree", broken)
    with pytest.raises(TypeError, match="broken degree"):
        degree_consistency(toy, samples=20, rng=Random(7))


def test_kernel_check_toy(toy):
    report = kernel_check(toy, degree_bound=8, x_cap=4)
    assert report.passed, report.witnesses


def test_kernel_check_danielewski():
    dan = RingPresentation.danielewski(1, ["-1", "0"])
    report = kernel_check(dan, degree_bound=6, x_cap=3)
    assert report.passed, report.witnesses


def test_kernel_check_fails_for_the_zero_derivation(toy):
    # the zero map is a derivation, but it kills every monomial, so the
    # window's non-x monomials span a kernel outside k[x]
    zero = Derivation(toy, {nm: toy.zero() for nm in toy.varset.names})
    report = kernel_check(toy, degree_bound=4, x_cap=2, derivation=zero)
    non_x = (len(basis_monomials(toy, 4)) - 1) * 3
    assert not report.passed
    assert report.witnesses == [
        f"derivation drops rank on non-x monomials: rank 0 of {non_x}; "
        "some combination outside k[x] lies in the kernel"
    ]


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain Gaussian elimination over Fractions."""
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / mat[rank][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@st.composite
def small_matrices(draw):
    ncols = draw(st.integers(1, 5))
    entries = st.integers(-3, 3).map(Fraction)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    if rows and draw(st.booleans()):
        # a combination of the rows drawn so far: rank-deficient by construction
        coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_row_rank_matches_fraction_elimination(rows):
    assert _row_rank(rows) == fraction_rank(rows)


def test_al_chain_refuses_a_window_below_the_last_entry(toy):
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"])
    for ring, least, name in [(toy, 5, "z"), (dan, 5, "y")]:
        for bound in (0, least - 1):
            with pytest.raises(ValueError, match=f"at least {least}, one past the degree where {name} enters, got {bound}"):
                al_chain_check(ring, bound=bound)
        for bound in (least, least + 2):
            report = al_chain_check(ring, bound=bound)
            assert report.passed, report.witnesses
            assert report.bound == bound


def test_al_chain_toy(toy):
    report = al_chain_check(toy)
    assert report.passed, report.witnesses
    assert report.bound == 5  # m*d + 1


def test_al_chain_with_tails():
    ring = RingPresentation.full(2, 2, ["X^2", "X", "0"], ["X", "0"])
    report = al_chain_check(ring)
    assert report.passed, report.witnesses
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"])
    report = al_chain_check(dan)
    assert report.passed, report.witnesses


def test_graded_relations_check(toy):
    report = graded_relations_check(toy)
    assert report.passed, report.witnesses


def test_report_json_shape(toy):
    report = kernel_check(toy, degree_bound=4, x_cap=2)
    data = json.loads(report.to_json())
    assert sorted(data) == ["bound", "check", "pass", "ring", "witnesses"]
    assert data["pass"] is True
    assert data["witnesses"] == []
    assert "full" in data["ring"]


def test_random_element_stays_in_window(toy):
    rng = Random(3)
    for _ in range(50):
        a = random_element(toy, rng, degree_bound=6, x_cap=2)
        assert a.degree() is None or a.degree() <= 6
        for exps in a.rep.terms:
            assert exps[0] <= 2


def sampled_pairs(ring, samples=60, degree_bound=8, seed=7):
    """The pairs (a, b) that graded_property_check draws, with both nonzero."""
    rng = Random(seed)
    pairs = []
    for _ in range(samples):
        a = random_element(ring, rng, degree_bound)
        b = random_element(ring, rng, degree_bound)
        if not (a.is_zero() or b.is_zero()):
            pairs.append((a, b))
    return pairs


def reference_graded_property_witnesses(ring):
    """graded_property_check's witnesses with every degree computed from the elements again."""
    witnesses = []
    for a, b in sampled_pairs(ring):
        ab = a * b
        top = gr_leading(a) * gr_leading(b)
        total = a.degree() + b.degree()
        if top.part.is_zero():
            if not (ab.is_zero() or ab.degree() < total):
                witnesses.append(f"top classes of {a} and {b} cancel but deg({ab}) = {ab.degree()}")
        elif ab.is_zero() or ab.degree() != total or gr_leading(ab) != top:
            witnesses.append(f"gr({a})*gr({b}) = {top} but the product's leading class differs")
        if len(witnesses) >= 5:
            break
    return witnesses


@pytest.mark.parametrize("ring", [toy_ring(), *grid_rings()], ids=lambda ring: ring.fingerprint())
def test_graded_property_check_computes_each_degree_once(monkeypatch, ring):
    # a and b's degrees are their leading classes' grades, and the product's
    # leading class carries its degree: one monomial_degree call per term of
    # a, b, the product of their top slices and ab; the reference, which
    # computes every degree again, walks a, b and (when the tops do not
    # cancel) ab once more, and reaches the same verdicts
    ring._rule_tails()
    once = extra = 0
    for a, b in sampled_pairs(ring):
        ab = a * b
        ga, gb = gr_leading(a), gr_leading(b)
        product = ring.normal_form(ga.part * gb.part)
        once += len(a.rep.nums) + len(b.rep.nums) + len(product.rep.nums) + len(ab.rep.nums)
        extra += len(a.rep.nums) + len(b.rep.nums) + (0 if (ga * gb).is_zero() else len(ab.rep.nums))
    calls = []
    original = RingPresentation.monomial_degree

    def counting(self, exps):
        calls.append(exps)
        return original(self, exps)

    with monkeypatch.context() as m:
        m.setattr(RingPresentation, "monomial_degree", counting)
        report = graded_property_check(ring)
        checked = len(calls)
        calls.clear()
        reference = reference_graded_property_witnesses(ring)
    assert report.witnesses == reference == []
    assert checked == once
    assert len(calls) == once + extra
