"""substitute_all as the one evaluation routine, at quotient-ring images.

The reference substitutes the representatives as polynomials, raising every
image afresh in each term (tests/util.py), and reduces once, at the end, so
it shares no power table, no summation loop and no intermediate reduction
with evaluate_in_ring.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt.polynomials import MultiPoly, parse_poly, substitute_all
from lndfilt.rings import RingPresentation, evaluate_in_ring
from util import RATIONAL_RINGS, fractions, fresh_power_substitute, rings


@st.composite
def ring_poly_env(draw):
    ring = draw(st.one_of(st.sampled_from(RATIONAL_RINGS), rings()))
    vs = ring.varset
    keys = st.tuples(*[st.integers(0, 2)] * len(vs))
    p = MultiPoly(vs, draw(st.dictionaries(keys, fractions, max_size=4)))
    small = st.tuples(*[st.integers(0, 1)] * len(vs))
    env = {
        nm: ring.normal_form(MultiPoly(vs, draw(st.dictionaries(small, fractions, max_size=2))))
        for nm in vs.names
    }
    return ring, p, env


@settings(max_examples=80, deadline=None)
@given(ring_poly_env())
def test_evaluate_in_ring_equals_one_reduction_of_the_substitution(case):
    ring, p, env = case
    want = ring.normal_form(fresh_power_substitute(p, {nm: v.rep for nm, v in env.items()}))
    got = evaluate_in_ring(p, env)
    assert got.ring == ring
    assert got == want


def test_evaluate_in_ring_rejects_bad_environments(toy):
    p = parse_poly("X*S + 1", toy.varset)
    other = RingPresentation.full(1, 1, ["1", "0"], ["0", "0"])
    cases = [
        ({"X": toy.generator("X"), "S": other.generator("S")}, "mixed rings"),
        ({}, "empty evaluation environment"),
        ({"X": toy.generator("X")}, "no substitution image for variable 'S'"),
        ({"X": toy.generator("X"), "S": parse_poly("S", toy.varset)}, "not ring elements"),
    ]
    for env, message in cases:
        with pytest.raises(ValueError, match=message):
            evaluate_in_ring(p, env)


def test_substitute_all_rejects_polynomials_mixed_with_ring_elements(toy):
    images = {"X": toy.generator("X"), "S": parse_poly("S", toy.varset)}
    with pytest.raises(ValueError, match="mixed types"):
        substitute_all([parse_poly("X", toy.varset)], images)
    with pytest.raises(ValueError, match="neither a polynomial nor a ring element"):
        substitute_all([parse_poly("X", toy.varset)], {"X": 3})


def test_constants_and_zero_evaluate_in_the_images_ring(toy):
    env = toy.generators()
    zero, three = (evaluate_in_ring(parse_poly(text, toy.varset), env) for text in ("0", "3"))
    assert zero == toy.zero() and zero.ring == toy
    assert three == toy.element(3) and three.ring == toy
