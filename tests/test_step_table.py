"""The derivation's step table of normal forms against the reduction route.

The reduction route applies the chain rule to an ambient monomial and
reduces the result with normal_form; the step table reads D off the values
nf(D(h)) and nf(h*D(v)) that it stored once, with no rewriting per step.
The orbit tests count what a D orbit runs, and that one canonical
derivation serves every caller on a ring.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from lndfilt import rings
from lndfilt.automorphisms import AutParams, verify_auto
from lndfilt.checks import al_chain_check, degree_consistency, kernel_check
from lndfilt.derivations import Derivation, canonical_derivation
from lndfilt.polynomials import MultiPoly
from lndfilt.rings import QuotElem, RingPresentation, _elem

from util import DANIELEWSKI_RINGS, RATIONAL_RINGS, count_applications, grid_rings, orbit_reads

# the 24-ring grid, three danielewski rings, a ring with rational tails, and
# a cylinder ring (with rational tails too)
TABLE_RINGS = grid_rings() + DANIELEWSKI_RINGS + RATIONAL_RINGS[1:]
TABLE_IDS = [f"grid-{k}" for k in range(24)] + ["dan-1", "dan-2", "dan-3", "rational", "cylinder"]


def canonical_monomials(ring: RingPresentation) -> list[QuotElem]:
    """Every canonical monomial whose free exponents are at most 2.

    A head variable (s, and y in the full family) runs below its head
    power; every other variable (x, z, t, and y in the danielewski family)
    runs over 0, 1, 2.
    """
    heads = ring._rule_heads()
    ranges = [range(heads.get(k, 3)) for k in range(len(ring.varset))]
    return [
        _elem(ring, MultiPoly.monomial(ring.varset, exps))
        for exps in product(*ranges)
    ]


def derivations(ring: RingPresentation) -> list[Derivation]:
    """Fresh derivations, so each builds its own table: D and (1/3)*X*D (den_D > 1),
    and on a cylinder d/dT and X*d/dT, whose one nonzero image is T's."""
    D = Derivation(ring, canonical_derivation(ring).images)
    third_x = ring.element(MultiPoly.variable(ring.varset, "X") * Fraction(1, 3))
    out = [D, Derivation(ring, {nm: third_x * img for nm, img in D.images.items()})]
    if ring.cylinder:
        for scale in (ring.one(), ring.generator("X")):
            images = {nm: ring.zero() for nm in ring.varset.names}
            images["T"] = scale
            out.append(Derivation(ring, images))
    return out


@pytest.mark.parametrize("ring", TABLE_RINGS, ids=TABLE_IDS)
def test_step_table_matches_the_reduction_route(ring):
    monomials = canonical_monomials(ring)
    for D in derivations(ring):
        for mono in monomials:
            assert D.apply(mono) == ring.normal_form(D._formal_apply(mono.rep))


def test_cylinder_derivations_reach_t():
    # d/dT lowers the T exponent and X*d/dT also raises X: both go through
    # the table's free-variable entries
    ring = RATIONAL_RINGS[2]
    d_dt, x_d_dt = derivations(ring)[2:]
    a = ring.element("S*Y*T^2")
    assert d_dt(a) == ring.element("2*S*Y*T")
    assert x_d_dt(a) == ring.element("2*X*S*Y*T")
    assert d_dt.degree(a) == 2
    assert x_d_dt.degree(ring.element("X^2*T^3 + S")) == 3


ORBIT_CASES = [
    (RingPresentation.full(2, 1, ["0", "0"], ["0", "0"]), "Z^3 + S*Y"),
    (RATIONAL_RINGS[1], "1/2*Z^2 + 2/3*S*Y"),
    (DANIELEWSKI_RINGS[1], "Y^3 + X*S^3"),
    (RATIONAL_RINGS[2], "Z*T^3 - S*Y^2"),
]


@pytest.mark.parametrize("ring,text", ORBIT_CASES, ids=["toy", "rational", "danielewski", "cylinder"])
def test_orbit_runs_no_rewrite(monkeypatch, ring, text):
    D = canonical_derivation(ring)
    a = ring.element(text)
    want = D.degree(a)  # builds the table
    assert want == a.degree()
    reads = orbit_reads(D, a, want + 1)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(rings.RingPresentation, "_rewrite", counting("_rewrite", rings.RingPresentation._rewrite))
    monkeypatch.setattr(rings, "_reducible", counting("_reducible", rings._reducible))
    count_applications(monkeypatch, calls)
    assert D.degree(a) == want
    assert calls == {"_orbit": 1, "steps": want + 1, "table reads": reads}


def test_canonical_derivation_is_built_once_per_ring(monkeypatch):
    ring = RingPresentation.full(1, 2, ["0", "0"], ["0", "0", "0"])
    built = Counter()
    real = Derivation.__init__

    def counting(self, *args):
        built["Derivation"] += 1
        real(self, *args)

    monkeypatch.setattr(Derivation, "__init__", counting)
    D = canonical_derivation(ring)
    assert canonical_derivation(ring) is D
    params = AutParams.make(2**5, 2**3, "X + 1")
    for _ in range(2):
        assert verify_auto(ring, params).passed
    assert kernel_check(ring, degree_bound=6, x_cap=2).passed
    assert degree_consistency(ring, samples=5).passed
    assert al_chain_check(ring).passed
    assert built == {"Derivation": 1}
    # an equal ring is another object, with its own derivation
    other = RingPresentation.full(1, 2, ["0", "0"], ["0", "0", "0"])
    assert other == ring and canonical_derivation(other) is not D
    assert canonical_derivation(other).images == D.images
