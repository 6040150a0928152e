"""The integer rewrite loop of normal_form against a Fraction reference."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lndfilt.polynomials import MultiPoly
from util import RATIONAL_RINGS, fractions, reference_normal_form, rings


@st.composite
def ring_and_poly(draw):
    ring = draw(st.one_of(st.sampled_from(RATIONAL_RINGS), rings()))
    keys = st.tuples(*[st.integers(0, 4)] * len(ring.varset))
    p = MultiPoly(ring.varset, draw(st.dictionaries(keys, fractions, max_size=6)))
    return ring, p


def test_rational_rings_have_a_tail_denominator():
    for ring in RATIONAL_RINGS:
        td, _ = ring._rule_tails()["s_first"]
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
