"""The derivation's formal derivative and its step table against references.

Derivation._formal_apply (the chain rule on MultiPoly) is compared with
leibniz_reference (tests/util.py), the Leibniz rule on exponent tuples and
Fractions, which runs no MultiPoly arithmetic.  apply, which reads the step
table, is compared with the MultiPoly derivative route reduced by
normal_form.  The orbit test reduces with the Fraction reference loop
instead, so that it shares no integer code at all with degree and iterate.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from lndfilt.derivations import BudgetExceededError, Derivation, canonical_derivation
from lndfilt.polynomials import MultiPoly
from lndfilt.rings import QuotElem, _elem
from util import (
    DANIELEWSKI_RINGS,
    RATIONAL_RINGS,
    derivative_route,
    fractions,
    leibniz_reference,
    mixed_small_rings,
    reference_normal_form,
    rings,
)


@st.composite
def derivation_and_poly(draw, max_exp=4):
    ring = draw(st.one_of(st.sampled_from(mixed_small_rings() + RATIONAL_RINGS), rings()))
    vs = ring.varset
    D = canonical_derivation(ring)
    if draw(st.booleans()):
        # x is in the kernel, so (1/3)*x*D is again a derivation; it sends S to
        # (1/3)*X^(n+e+1), so its images have a denominator > 1
        third_x = ring.element(MultiPoly.variable(vs, "X") * Fraction(1, 3))
        D = Derivation(ring, {nm: third_x * img for nm, img in D.images.items()})
    keys = st.tuples(*[st.integers(0, max_exp)] * len(vs))
    return D, MultiPoly(vs, draw(st.dictionaries(keys, fractions, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(derivation_and_poly())
def test_formal_apply_equals_the_tuple_leibniz_rule(case):
    D, p = case
    assert D._formal_apply(p) == MultiPoly(p.varset, leibniz_reference(D, p.terms))
    a = D.ring.normal_form(p)
    assert D.apply(a) == D.ring.normal_form(derivative_route(D, a.rep))



def reference_orbit(D, p):
    """a = [p], D(a), D^2(a), ... up to and including 0, all over Fractions."""
    ring = D.ring

    def reduced(q):
        rep, _ = reference_normal_form(ring, q, "s_first")
        return _elem(ring, MultiPoly(ring.varset, rep))

    orbit = [reduced(p)]
    while not orbit[-1].is_zero():
        orbit.append(reduced(derivative_route(D, orbit[-1].rep)))
    return orbit


@settings(max_examples=60, deadline=None)
@given(derivation_and_poly(max_exp=2))
def test_orbit_equals_repeated_apply(case):
    D, p = case
    orbit = reference_orbit(D, p)
    a = orbit[0]
    applied = [a]
    while not applied[-1].is_zero():
        applied.append(D.apply(applied[-1]))
    assert applied == orbit
    # D^(len - 1)(a) is the first zero, so deg_D(a) = len - 2 (None for a = 0)
    assert D.degree(a) == (len(orbit) - 2 if len(orbit) > 1 else None)
    for k in range(4):
        assert D.iterate(a, k) == orbit[min(k, len(orbit) - 1)]
    if len(orbit) > 2:
        # the largest bound that is too small: D^(bound+1)(a) is the last nonzero
        bound = len(orbit) - 3
        with pytest.raises(BudgetExceededError) as info:
            D.degree(a, bound)
        assert str(info.value) == (
            f"derivation budget {bound} exceeded on {a}; still nonzero: {orbit[bound + 1]}"
        )


# step tables with den_T == 1, where _orbit keeps den fixed and defers the
# gcd to the result's conversion, and with den_T != 1 (rational tails)
UNIT_TABLE_RINGS = [r for r in mixed_small_rings() + DANIELEWSKI_RINGS if canonical_derivation(r)._step_rows()[0] == 1]
proper_fractions = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(2, 7))


@st.composite
def fractional_element(draw):
    ring = draw(st.sampled_from(UNIT_TABLE_RINGS + RATIONAL_RINGS))
    keys = st.tuples(*[st.integers(0, 2)] * len(ring.varset))
    terms = draw(st.dictionaries(keys, proper_fractions, min_size=1, max_size=5))
    return canonical_derivation(ring), MultiPoly(ring.varset, terms)


def lowest_terms(a: QuotElem) -> bool:
    return gcd(a.rep.den, *a.rep.nums.values()) == 1


@settings(max_examples=60, deadline=None)
@given(fractional_element())
def test_deferred_gcd_matches_the_fraction_orbit(case):
    D, p = case
    assert UNIT_TABLE_RINGS
    orbit = reference_orbit(D, p)
    a = orbit[0]
    assume(a.rep.den > 1)
    for b, image in zip(orbit, orbit[1:]):
        got = D.apply(b)
        assert got == image and lowest_terms(got)
    for k in range(len(orbit) + 1):
        got = D.iterate(a, k)
        assert got == orbit[min(k, len(orbit) - 1)] and lowest_terms(got)
    den_t = D._step_rows()[0]
    terms, den, _, steps = D._orbit(*D._integer_terms(a), len(orbit))
    assert not terms and steps == len(orbit) - 1
    if den_t == 1:
        # the denominator never grows, so it is never divided
        assert D._orbit(*D._integer_terms(a), len(orbit) - 2)[1] == a.rep.den
    if len(orbit) > 2:
        bound = len(orbit) - 3
        with pytest.raises(BudgetExceededError) as info:
            D.degree(a, bound)
        assert str(info.value) == f"derivation budget {bound} exceeded on {a}; still nonzero: {orbit[bound + 1]}"
