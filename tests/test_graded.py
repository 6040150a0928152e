"""Associated graded algebra: leading classes, graded relations, top ideals."""

import pytest

from lndfilt.graded import GradedElem, gr_leading, graded_generators, hat_ideal_tops
from lndfilt.polynomials import MultiPoly, parse_poly
from lndfilt.rings import RingPresentation

from util import grid_rings, mixed_small_rings, random_element


def test_gr_leading_toy(toy):
    a = toy.element("Y + S + 3")
    top = gr_leading(a)
    assert top.grade == 2
    assert top.part == parse_poly("Y", toy.varset)
    with pytest.raises(ValueError, match="zero element"):
        gr_leading(toy.zero())


def test_graded_relations_toy(toy):
    g = graded_generators(toy)
    assert g["X"] ** 2 * g["Y"] == g["S"] ** 2
    assert g["X"] * g["Z"] == g["Y"] ** 2
    # the products really dropped the lower-degree tail: y*y = s + x*z in the
    # ring, and only x*z survives at grade 4
    y2 = g["Y"] * g["Y"]
    assert y2.part == parse_poly("X*Z", toy.varset)


def test_graded_relations_grid():
    for ring in grid_rings():
        g = graded_generators(ring)
        assert g["X"] ** ring.n * g["Y"] == g["S"] ** ring.d
        assert g["X"] ** ring.e * g["Z"] == g["Y"] ** ring.m


def test_hat_ideal_tops_toy(toy):
    tops = hat_ideal_tops(toy)
    assert tops == [
        parse_poly("X^2*Y - S^2", toy.varset),
        parse_poly("Y^2 - X*Z", toy.varset),
    ]


def test_hat_ideal_tops_with_tails():
    ring = RingPresentation.full(3, 1, ["1 + X^3", "0"], ["2*X", "0", "0"])
    tops = hat_ideal_tops(ring)
    assert tops == [
        parse_poly("X^3*Y - S^2", ring.varset),
        parse_poly("Y^3 - X*Z", ring.varset),
    ]
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"])
    assert hat_ideal_tops(dan) == [parse_poly("X^2*Y - S^4", dan.varset)]


def test_degree_is_multiplicative(toy, rng):
    # P1: the induced degree is additive on products
    for _ in range(15):
        a = random_element(rng, toy, 7)
        b = random_element(rng, toy, 7)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == a.degree() + b.degree()
        assert gr_leading(a * b) == gr_leading(a) * gr_leading(b)


def test_top_degree_drop_cases(toy, rng):
    for _ in range(15):
        a = random_element(rng, toy, 8)
        if a.is_zero():
            continue
        noise = random_element(rng, toy, max(0, a.degree() - 1))
        b = -a + noise
        if b.is_zero():
            continue
        if b.degree() == a.degree():
            summed = a + b
            if summed.is_zero() or summed.degree() < a.degree():
                # P4: cancellation at the top is visible in the graded algebra
                assert (gr_leading(a) + gr_leading(b)).is_zero()
            else:
                # P3: no cancellation means the leading classes add
                assert gr_leading(summed) == gr_leading(a) + gr_leading(b)


def test_p2_lower_degree_noise(toy, rng):
    for _ in range(15):
        a = random_element(rng, toy, 8)
        if a.is_zero() or a.degree() == 0:
            continue
        noise = random_element(rng, toy, a.degree() - 1)
        assert gr_leading(a + noise) == gr_leading(a)


def test_graded_add_requires_same_grade(toy):
    g = graded_generators(toy)
    with pytest.raises(ValueError, match="degrees 0 and 1"):
        g["X"] + g["S"]


def test_graded_class_validation(toy):
    with pytest.raises(ValueError, match="grade-3 class"):
        GradedElem(toy, 3, parse_poly("Y", toy.varset))
    zero_class = GradedElem(toy, 5, MultiPoly.zero(toy.varset))
    assert zero_class.is_zero()
    assert str(gr_leading(toy.element("2*S"))) == "[2*S]_1"


def test_power_is_the_repeated_product(rng):
    for ring in (*mixed_small_rings(), *grid_rings()[:4]):
        classes = [gr_leading(random_element(rng, ring, 6)) for _ in range(3)]
        classes += list(graded_generators(ring).values())
        for g in classes:
            product = GradedElem(ring, 0, MultiPoly.constant(ring.varset, 1))
            for k in range(6):
                assert g ** k == product
                product = product * g
    with pytest.raises(ValueError, match="non-negative integer"):
        g ** -1
