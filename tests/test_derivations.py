"""The canonical derivation: images, Leibniz action, nilpotency degrees."""

from collections import Counter

import pytest

from lndfilt.checks import random_element
from lndfilt.derivations import BudgetExceededError, Derivation, canonical_derivation
from lndfilt.polynomials import MultiPoly
from lndfilt.rings import QuotElem, RingPresentation

from util import RATIONAL_RINGS, grid_rings, mixed_small_rings


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
        with monkeypatch.context() as m:
            for cls, name in [(Derivation, "apply"), (Derivation, "_step"), (QuotElem, "__init__")]:
                m.setattr(cls, name, counting(name, getattr(cls, name)))
            calls.clear()
            assert D.degree(a) == want
            assert calls == {"_step": want + 1}
            calls.clear()
            D.iterate(a, 2)
            assert calls == {"_step": 2, "__init__": 1}


def test_cylinder_variable_in_kernel(toy):
    cyl = toy.with_cylinder()
    D = canonical_derivation(cyl)
    t = cyl.generator("T")
    assert D(t).is_zero()
    assert D.degree(cyl.element("S*T^5")) == 1
