"""The integer rewrite loop of normal_form against a Fraction reference.

The reference (tests/util.py) rewrites exponent tuples with Fraction
coefficients, so it shares no packing with normal_form; the carry tests put
exponents at the guard bits of the packed fields, where the loop must move
to double the width.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt.polynomials import MultiPoly, _Packing, parse_poly
from lndfilt.rings import RingPresentation, evaluate_in_ring
from util import (
    RATIONAL_RINGS,
    count_widenings,
    fractions,
    fresh_power_substitute,
    reference_normal_form,
    rings,
)


@st.composite
def ring_and_poly(draw):
    ring = draw(st.one_of(st.sampled_from(RATIONAL_RINGS), rings()))
    keys = st.tuples(*[st.integers(0, 4)] * len(ring.varset))
    p = MultiPoly(ring.varset, draw(st.dictionaries(keys, fractions, max_size=6)))
    return ring, p


def test_rational_rings_have_a_tail_denominator():
    for ring in RATIONAL_RINGS:
        td, _ = ring._rule_tails()
        assert td > 1


@settings(max_examples=200, deadline=None)
@given(ring_and_poly(), st.sampled_from(["s_first", "y_first"]))
def test_normal_form_matches_reference(case, strategy):
    ring, p = case
    want_rep, want_cofactors = reference_normal_form(ring, p, strategy)
    elem, cofactors = ring.normal_form(p, strategy, with_cofactors=True)
    assert elem.rep.terms == want_rep
    assert all(type(c) is Fraction for c in elem.rep.terms.values())
    if ring.family == "danielewski":
        assert cofactors[1] is None
        cofactors = cofactors[:1]
    assert [cof.terms for cof in cofactors] == want_cofactors
    assert ring.normal_form(p, strategy) == elem


# rings whose tails raise the X exponent (X^n*Y, X^e*Z, f_i(X)), one with
# rational tails (td > 1) and a danielewski ring
CARRY_RINGS = [
    RingPresentation.full(3, 1, ["1 + X^3", "0"], ["2*X", "0", "0"]),
    RATIONAL_RINGS[1],
    RingPresentation.danielewski(2, ["1", "0", "X^2", "0"]),
]
# (X exponent added to every term, polynomial): starts just below the guard
# bit of a 16-bit field, so the first pass sets it; starts lower and sets it
# after some passes; straddles an 8-bit field; crosses from struct-packed
# 64-bit fields to shifted 128-bit ones; and exponents of 2^64 and more.
# (The parser caps exponents, so the X exponent is added afterwards.)
CARRY_INPUTS = [
    (2**15 - 2, "X*S^3*Y^2 + S*Y"),
    (2**15 - 24, "S^20*Y^12 + 2/3*X^9*S^6*Y^3"),
    (120, "S^7*Y^4 - X^7*S^2"),
    (2**63 - 2, "X*S^3*Y^2 + S*Y"),
    (2**64 - 1, "X*S^4*Y^3 + 5*S^3"),
]
CARRY_IDS = ["below-2^15", "crossing-2^15", "2^7", "2^63", "2^64"]


def shifted(ring: RingPresentation, case: tuple[int, str]) -> MultiPoly:
    shift, text = case
    p = parse_poly(text, ring.varset)
    return MultiPoly(ring.varset, {(e[0] + shift, *e[1:]): c for e, c in p.terms.items()})


@pytest.mark.parametrize("ring", CARRY_RINGS, ids=["full", "rational", "danielewski"])
@pytest.mark.parametrize("case", CARRY_INPUTS, ids=CARRY_IDS)
@pytest.mark.parametrize("strategy", ["s_first", "y_first"])
def test_normal_form_across_a_field_carry(monkeypatch, ring, case, strategy):
    p = shifted(ring, case)
    want_rep, want_cofactors = reference_normal_form(ring, p, strategy)
    widths = count_widenings(monkeypatch)
    elem, cofactors = ring.normal_form(p, strategy, with_cofactors=True)
    monkeypatch.undo()
    assert elem.rep.terms == want_rep
    assert [cof.terms for cof in cofactors if cof is not None] == want_cofactors
    top = max(exps[0] for exps in p.terms)
    reached = max(exps[0] for exps in want_rep)
    for width in (8, 16, 64):
        if top < 2 ** (width - 1) <= reached:
            # the result's X exponent does not fit the input's fields, so
            # a pass's input moved to double the width
            assert width in [w for w, _ in widths]


def test_crossing_happens_inside_the_rewrite(monkeypatch):
    # the first passes run in 16-bit fields; a later one pushes X past
    # 2^15 - 1, which sets a guard bit, so the passes after it run in 32-bit
    # fields
    ring = CARRY_RINGS[0]
    p = shifted(ring, CARRY_INPUTS[1])
    top = max(exps[0] for exps in p.terms)
    widths = count_widenings(monkeypatch)
    rep = ring.normal_form(p).rep
    monkeypatch.undo()
    assert [w for w, _ in widths] == [16]
    assert widths[0][1] > top
    assert max(exps[0] for exps in rep.terms) >= 2**15
    assert rep.terms == reference_normal_form(ring, p, "s_first")[0]


@pytest.mark.parametrize("ring", CARRY_RINGS, ids=["full", "rational", "danielewski"])
def test_evaluate_in_ring_across_a_field_carry(monkeypatch, ring):
    # the substituted sum fits 16-bit fields; the rewrite that follows
    # pushes X past 2^15 - 1 and goes on in 32-bit fields
    vs = ring.varset
    env = {nm: ring.generator(nm) for nm in vs.names}
    env["S"] = ring.element("S + 1")
    env["Y"] = ring.element("Y - 2*S")
    p = shifted(ring, (2**15 - 20, "S^20*Y^12 + 3*X^9*S*Y"))
    reps = {nm: v.rep for nm, v in env.items()}
    want, _ = reference_normal_form(ring, fresh_power_substitute(p, reps), "s_first")
    widths = count_widenings(monkeypatch)
    got = evaluate_in_ring(p, env)
    monkeypatch.undo()
    assert got.rep.terms == want
    assert max(exps[0] for exps in want) >= 2**15
    assert [w for w, _ in widths] == [16]


def test_strategies_share_one_packed_rule_table_per_width(monkeypatch):
    # a strategy is only the order the rules are tried in: both read one
    # rule set, packed once per width
    widths = []
    original = _Packing.table

    def counting(packing, rows):
        widths.append(packing.width)
        return original(packing, rows)

    monkeypatch.setattr(_Packing, "table", counting)
    ring = RingPresentation.full(2, 2, ["X^2", "X", "0"], ["X", "0"])
    for text in ("S^4*Y^3 + Z^2", "X^200*S^4*Y^3 + X*Z^2"):
        p = parse_poly(text, ring.varset)
        assert ring.normal_form(p, "s_first") == ring.normal_form(p, "y_first")
    assert sorted(widths) == [8, 16]
