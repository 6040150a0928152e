"""The canonical derivation: images, Leibniz action, nilpotency degrees."""

import re
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from lndfilt.checks import random_element
from lndfilt.derivations import BudgetExceededError, Derivation, canonical_derivation
from lndfilt.polynomials import MultiPoly, _packed
from lndfilt import rings
from lndfilt.rings import QuotElem, RingPresentation, _elem

from util import (
    DANIELEWSKI_RINGS,
    RATIONAL_RINGS,
    count_applications,
    count_widenings,
    grid_rings,
    leibniz_reference,
    mixed_small_rings,
    orbit_reads,
    reference_normal_form,
)


def test_toy_canonical_images(toy):
    D = canonical_derivation(toy)
    assert D.images["X"].is_zero()
    assert D.images["S"] == toy.element("X^3")
    assert D.images["Y"] == toy.element("2*X*S")
    assert D.images["Z"] == toy.element("4*S*Y - X^2")


def test_well_definedness_vanishes_at_polynomial_level():
    # for the canonical images the relation residuals are zero even before
    # any reduction takes place
    for ring in mixed_small_rings():
        D = canonical_derivation(ring)
        for rel in ring.relation_polys():
            assert D._formal_apply(rel) == MultiPoly.zero(ring.varset)


def test_invalid_images_rejected(toy):
    images = {
        "X": toy.zero(),
        "S": toy.one(),
        "Y": toy.zero(),
        "Z": toy.zero(),
    }
    with pytest.raises(ValueError, match="do not define a derivation"):
        Derivation(toy, images)
    with pytest.raises(ValueError, match="no derivation image"):
        Derivation(toy, {"X": toy.zero()})


def test_scaled_derivation_is_valid(toy):
    # multiplying every image by a kernel element keeps the Leibniz identity
    D = canonical_derivation(toy)
    x = toy.generator("X")
    scaled = Derivation(toy, {nm: x * img for nm, img in D.images.items()})
    s = toy.generator("S")
    assert scaled(s) == toy.element("X^4")


def test_toy_iterates_of_z(toy):
    D = canonical_derivation(toy)
    z = toy.generator("Z")
    assert D.iterate(z, 1) == toy.element("4*S*Y - X^2")
    assert D.iterate(z, 2) == toy.element("12*X^3*Y")
    assert D.iterate(z, 3) == toy.element("24*X^4*S")
    assert D.iterate(z, 4) == toy.element("24*X^7")
    assert D.iterate(z, 5).is_zero()


def test_toy_degree_goldens(toy):
    D = canonical_derivation(toy)
    degrees = {nm: D.degree(toy.generator(nm)) for nm in "XSYZ"}
    assert degrees == {"X": 0, "S": 1, "Y": 2, "Z": 4}
    assert D.degree(toy.zero()) is None
    assert D.degree(toy.element("7")) == 0
    assert D.degree(toy.element("S*Y*Z")) == 7


def test_leibniz_rule(toy, rng):
    D = canonical_derivation(toy)
    for _ in range(20):
        a = random_element(toy, rng, 8, x_cap=4)
        b = random_element(toy, rng, 8, x_cap=4)
        assert D(a * b) == a * D(b) + b * D(a)
        assert D(a + b) == D(a) + D(b)


def test_degree_additivity(toy, rng):
    D = canonical_derivation(toy)
    for _ in range(10):
        a = random_element(toy, rng, 6, x_cap=4)
        b = random_element(toy, rng, 6, x_cap=4)
        if a.is_zero() or b.is_zero():
            continue
        assert D.degree(a * b) == D.degree(a) + D.degree(b)


def test_grid_s_image_and_nilpotency():
    for ring in grid_rings()[:6]:
        D = canonical_derivation(ring)
        n, e, d, m = ring.n, ring.e, ring.d, ring.m
        assert D(ring.generator("S")) == ring.element(f"X^{n + e}")
        y = ring.generator("Y")
        assert D.degree(y) == d
        z = ring.generator("Z")
        assert D.degree(z) == m * d
        assert D.iterate(z, m * d + 1).is_zero()
        assert not D.iterate(z, m * d).is_zero()


CLOSED_FORM_RINGS = (
    grid_rings()
    + mixed_small_rings()
    + RATIONAL_RINGS
    + [grid_rings()[0].with_cylinder(), DANIELEWSKI_RINGS[1].with_cylinder()]
)
CLOSED_FORM_IDS = (
    [f"grid-{k}" for k in range(24)]
    + [f"mixed-{k}" for k in range(len(mixed_small_rings()))]
    + ["rational-dan", "rational", "rational-cyl", "grid-0-cyl", "dan-2-cyl"]
)


@pytest.mark.parametrize("ring", CLOSED_FORM_RINGS, ids=CLOSED_FORM_IDS)
def test_canonical_images_match_the_closed_forms(ring):
    # the images derived from the relations against the closed forms
    # y -> X^e*P'(S) and z -> Q'(Y)*P'(S) - X^n, written out here
    D = canonical_derivation(ring)
    x = MultiPoly.variable(ring.varset, "X")
    dp_ds = ring.p_poly().derivative("S")
    want = {nm: ring.zero() for nm in ring.varset.names}
    want["S"] = ring.element(x ** (ring.n + ring.e))
    want["Y"] = ring.element(x ** ring.e * dp_ds)
    if "Z" in ring.varset.names:
        want["Z"] = ring.element(ring.q_poly().derivative("Y") * dp_ds - x ** ring.n)
    assert D.images == want
    assert [str(img) for img in D.images.values()] == [str(img) for img in want.values()]


def test_danielewski_canonical_derivation():
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"])
    D = canonical_derivation(dan)
    assert D.images["S"] == dan.element("X^2")
    assert D.images["Y"] == dan.element("4*S^3 + 2*X^2*S")
    assert D.degree(dan.generator("Y")) == 4
    assert D.degree(dan.generator("S")) == 1


def test_budget_exceeded(toy):
    D = canonical_derivation(toy)
    with pytest.raises(BudgetExceededError):
        D.degree(toy.generator("Z"), bound=2)
    # the default budget is always sufficient
    assert D.degree(toy.generator("Z")) == 4


def two_walk_budget(D, a) -> int:
    """default_budget as it was computed before degree took it from its one walk."""
    if a.is_zero():
        return 1
    return max(D.ring.weights) * max(map(sum, a.rep.nums)) + 1


@pytest.mark.parametrize("ring", grid_rings() + DANIELEWSKI_RINGS, ids=str)
def test_degree_takes_budget_and_packing_from_one_walk(ring):
    # degree reads the default budget and its packing off one walk over the
    # exponents (the largest total degree bounds every exponent); the values,
    # and the budget error's text, are those of a budget from the sums and an
    # orbit packed from the largest exponent
    rng = Random(repr(ring))
    D = canonical_derivation(ring)
    elems = [ring.zero(), ring.one(), *(random_element(ring, rng, 10) for _ in range(12))]
    for a in elems:
        budget = two_walk_budget(D, a)
        assert D.default_budget(a) == budget
        want = None
        if not a.is_zero():
            terms, den, packing, steps = D._orbit(*_packed(a.rep), budget + 1)
            assert not terms
            want = steps - 1
        assert D.degree(a) == want
        if want:
            for bound in (0, want - 1):
                message = f"derivation budget {bound} exceeded on {a}; still nonzero: {D.iterate(a, bound + 1)}"
                with pytest.raises(BudgetExceededError) as err:
                    D.degree(a, bound)
                assert str(err.value) == message


@pytest.mark.parametrize("bad", [-1, -(2**70), True, False, 1.0, "2", Fraction(1), None], ids=repr)
def test_step_counts_are_refused_before_any_step(toy, monkeypatch, bad):
    D = canonical_derivation(toy)

    def no_orbit(self, *args):
        raise AssertionError("D was applied")

    monkeypatch.setattr(Derivation, "_orbit", no_orbit)
    for text in ("S*Y", "0"):
        a = toy.element(text)
        if bad is not None:  # None asks degree for its default budget
            with pytest.raises(ValueError, match=re.escape(f"degree bound must be an integer >= 0, got {bad!r}")):
                D.degree(a, bad)
        with pytest.raises(ValueError, match=re.escape(f"iteration count must be an integer >= 0, got {bad!r}")):
            D.iterate(a, bad)
    monkeypatch.undo()
    assert D.degree(toy.element("7"), 0) == 0
    assert D.degree(toy.element("S*Y"), 2**64) == 3


def test_orbit_builds_no_element_per_application(toy, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # a rational ring and fractional coefficients, so the gcd step runs too
    cases = [(toy, "Z^3 + S*Y"), (RATIONAL_RINGS[1], "1/2*Z^2 + 2/3*S*Y")]
    for ring, text in cases:
        D = canonical_derivation(ring)
        a = ring.element(text)
        want = D.degree(a)
        # D^want(a) is the last nonzero map and D^(want+1)(a) the first empty one
        packed = D._integer_terms(a)
        last, first_zero = D._orbit(*packed, want), D._orbit(*packed, want + 1)
        assert last[0] and last[3] == want
        assert not first_zero[0] and first_zero[3] == want + 1
        reads = orbit_reads(D, a, want + 1), orbit_reads(D, a, 2)
        with monkeypatch.context() as m:
            count_applications(m, calls)
            # the one element is built canonical, through the private builder
            for cls, name in [(Derivation, "apply"), (QuotElem, "__init__"), (rings, "_elem")]:
                m.setattr(cls, name, counting(name, getattr(cls, name)))
            calls.clear()
            assert D.degree(a) == want
            assert calls == {"_orbit": 1, "steps": want + 1, "table reads": reads[0]}
            calls.clear()
            D.iterate(a, 2)
            assert calls == {"_orbit": 1, "steps": 2, "table reads": reads[1], "_elem": 1}


def test_cylinder_variable_in_kernel(toy):
    cyl = toy.with_cylinder()
    D = canonical_derivation(cyl)
    t = cyl.generator("T")
    assert D(t).is_zero()
    assert D.degree(cyl.element("S*T^5")) == 1


def reference_orbit(D, p):
    """p reduced, D(p), D^2(p), ... up to the first zero, as term maps.

    Tuple Leibniz rule and the Fraction rewrite loop of tests/util.py: no
    packed key anywhere.
    """
    ring = D.ring
    orbit = [reference_normal_form(ring, p, "s_first")[0]]
    while orbit[-1]:
        image = MultiPoly(ring.varset, leibniz_reference(D, orbit[-1]))
        orbit.append(reference_normal_form(ring, image, "s_first")[0])
    return orbit


def _x_shifted(ring, shift, text):
    # the parser caps exponents, so the large X power is added afterwards
    p = ring.element(text).rep
    return ring.normal_form(MultiPoly(ring.varset, {(e[0] + shift, *e[1:]): c for e, c in p.terms.items()}))


# X exponents that start just below a field's guard bit and cross it along
# the orbit (D raises X: D(S) = X^(n+e), D(Y) = X^e*dP/dS, D(Z) = ... - X^n),
# across struct-packed and shifted fields, and at 2^64
ORBIT_CASES = [
    (RingPresentation.full(2, 1, ["0", "0"], ["0", "0"]), 2**15 - 6, "Z^2 + 1/2*S*Y"),
    (RingPresentation.full(1, 1, ["3/4", "1/2*X"], ["2/3*X", "5/7"]), 120, "Z*Y + S"),
    (RingPresentation.danielewski(2, ["1", "0", "X^2", "0"]), 2**63 - 9, "Y^2 + X*S^3"),
    (RingPresentation.full(2, 1, ["0", "0"], ["0", "0"], cylinder=True), 2**64, "Z*T^3 - S"),
]


@pytest.mark.parametrize("ring,shift,text", ORBIT_CASES, ids=["2^15", "2^7-rational", "2^63", "2^64-cylinder"])
def test_orbit_across_a_field_carry(monkeypatch, ring, shift, text):
    D = canonical_derivation(ring)
    a = _x_shifted(ring, shift, text)
    orbit = reference_orbit(D, a.rep)
    elems = [_elem(ring, MultiPoly(ring.varset, terms)) for terms in orbit]
    widths = count_widenings(monkeypatch)
    applied = [a]
    while not applied[-1].is_zero():
        applied.append(D.apply(applied[-1]))
    assert applied == elems
    assert D.degree(a) == len(orbit) - 2
    for k in range(len(orbit) + 1):
        assert D.iterate(a, k) == elems[min(k, len(orbit) - 1)]
    monkeypatch.undo()
    top = max(exps[0] for exps in a.rep.terms)
    reached = max(exps[0] for terms in orbit for exps in terms)
    crossed = [w for w in (8, 16, 32, 64) if top < 2 ** (w - 1) <= reached]
    # every field boundary that the orbit's X exponent crosses forces a restart
    assert set(crossed) <= {w for w, _ in widths}
    assert crossed or shift == 2**64
