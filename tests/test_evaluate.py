"""substitute_all as the one evaluation routine, at quotient-ring images.

The reference substitutes the representatives as polynomials, raising every
image afresh in each term (tests/util.py), and reduces once, at the end, so
it shares no power table, no summation loop and no intermediate reduction
with evaluate_in_ring.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt import polynomials
from lndfilt.cylinders import FullStep, solve_step
from lndfilt.polynomials import MultiPoly, VarSet, parse_poly, substitute_all
from lndfilt.rings import QuotElem, RingPresentation, evaluate_in_ring
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


@st.composite
def single_term_ring_env(draw):
    """Values that are single canonical terms carrying S or Y, mixed with
    table values, and a polynomial whose S and Y exponents pass d and m."""
    ring = draw(st.one_of(st.sampled_from(RATIONAL_RINGS), rings()))
    vs = ring.varset
    keys = st.tuples(*[st.integers(0, 4)] * len(vs))
    p = MultiPoly(vs, draw(st.dictionaries(keys, fractions, max_size=4)))
    small = st.tuples(*[st.integers(0, 1)] * len(vs))
    nonzero = st.one_of(st.sampled_from([1, -1]), fractions.filter(bool))
    y_cap = ring.m - 1 if ring.family == "full" else 2
    env = {}
    for nm in vs.names:
        if draw(st.booleans()):
            exps = [draw(st.integers(0, 1)) for _ in vs.names]
            exps[1] = draw(st.integers(0, ring.d - 1))
            exps[2] = draw(st.integers(0 if exps[1] else 1, y_cap))
            value = ring.normal_form(MultiPoly.monomial(vs, exps, draw(nonzero)))
            assert len(value.rep.terms) == 1
        else:
            value = ring.normal_form(MultiPoly(vs, draw(st.dictionaries(small, fractions, max_size=2))))
        env[nm] = value
    return ring, p, env


@settings(max_examples=80, deadline=None)
@given(single_term_ring_env())
def test_single_term_values_are_reduced_once_at_the_end(case):
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


# ------------------------------------------------------------ work counters


def _count_calls(monkeypatch, calls: Counter, owner, name: str) -> None:
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_single_term_images_take_no_products(monkeypatch):
    # the step solver's move into the mixed recovery varset, plus a scaled
    # image and a constant
    endo = solve_step(FullStep(1, 2))
    polys = list(endo.images.values())
    mixed = VarSet(("X", "S", "Y", "Z", "T", "x", "t", "s", "y"))
    low = {"X": "x", "S": "s", "Y": "y", "T": "t"}
    images = {nm: MultiPoly.variable(mixed, low.get(nm, nm)) for nm in endo.varset.names}
    images["Z"] = parse_poly("-3/2*Z*y^2", mixed)
    images["T"] = parse_poly("5/7", mixed)
    want = [fresh_power_substitute(p, images) for p in polys]
    calls = Counter()
    _count_calls(monkeypatch, calls, polynomials, "_product")
    _count_calls(monkeypatch, calls, MultiPoly, "__mul__")
    got = substitute_all(polys, images)
    monkeypatch.undo()
    assert calls == Counter()
    assert got == want


def test_evaluate_in_ring_reduces_once_beyond_the_ladder(monkeypatch):
    ring = RingPresentation.full(2, 1, ["1/2", "X"], ["0", "1/3*X", "0"])
    env = {
        "X": ring.element("2*X"),
        "S": ring.element("-S*Y"),
        "Y": ring.element("Y + X*S"),
        "Z": ring.element("1/2*Z + S"),
    }
    p = parse_poly("S^5*Y^4 + X^3*Z^2 - 3*S*Y*Z + Y^3*Z + 1", ring.varset)
    want = ring.normal_form(fresh_power_substitute(p, {nm: v.rep for nm, v in env.items()}))
    calls = Counter()
    _count_calls(monkeypatch, calls, RingPresentation, "normal_form")
    _count_calls(monkeypatch, calls, QuotElem, "__mul__")
    got = evaluate_in_ring(p, env)
    monkeypatch.undo()
    assert got == want
    assert calls["__mul__"] > 0
    assert calls["normal_form"] == calls["__mul__"] + 1
