"""Every integer parameter is refused by the one count test, polynomials._count."""

import re
from fractions import Fraction

import pytest

from lndfilt import cylinders, derivations, rings
from lndfilt.cylinders import (
    DanielewskiStep,
    FullStep,
    cancellation_report,
    compose_chain,
    compose_danielewski_chain,
)
from lndfilt.derivations import canonical_derivation
from lndfilt.graded import GradedElem, gr_leading
from lndfilt.polynomials import MultiPoly
from lndfilt.rings import QuotElem, RingPresentation, toy_ring

SIZE_P = ["1", "0", "X^2", "0"]
TOY = toy_ring()
D = canonical_derivation(TOY)
ELEMENT = TOY.element("S*Y + X")
CLASS = gr_leading(ELEMENT)

# (entry point, the parameter it names, its least value, a call with the
# parameter replaced by the argument)
ENTRY_POINTS = [
    ("FullStep", "n", 1, lambda v: FullStep(v, 1)),
    ("FullStep", "e", 1, lambda v: FullStep(1, v)),
    ("DanielewskiStep", "n", 1, lambda v: DanielewskiStep(v, SIZE_P)),
    ("compose_chain", "n", 1, lambda v: compose_chain(v, 1, 3)),
    ("compose_chain", "e_from", 1, lambda v: compose_chain(1, v, 3)),
    ("compose_chain", "e_to", 2, lambda v: compose_chain(1, 1, v)),
    ("compose_danielewski_chain", "n_from", 1, lambda v: compose_danielewski_chain(v, 3, SIZE_P)),
    ("compose_danielewski_chain", "n_to", 2, lambda v: compose_danielewski_chain(1, v, SIZE_P)),
    ("cancellation_report", "n", 1, lambda v: cancellation_report(v, 1, 2)),
    ("cancellation_report", "e1", 1, lambda v: cancellation_report(1, v, 2)),
    ("cancellation_report", "e2", 1, lambda v: cancellation_report(1, 1, v)),
    ("RingPresentation.full", "n", 1, lambda v: RingPresentation.full(v, 1, ["0", "0"], ["0", "0"])),
    ("RingPresentation.full", "e", 0, lambda v: RingPresentation.full(2, v, ["0", "0"], ["0", "0"])),
    ("RingPresentation.danielewski", "n", 1, lambda v: RingPresentation.danielewski(v, SIZE_P)),
    ("GradedElem", "grade", 0, lambda v: GradedElem(TOY, v, CLASS.part)),
    ("MultiPoly.__pow__", "exponent", 0, lambda v: ELEMENT.rep ** v),
    ("QuotElem.__pow__", "exponent", 0, lambda v: ELEMENT ** v),
    ("GradedElem.__pow__", "exponent", 0, lambda v: CLASS ** v),
    ("Derivation.iterate", "iteration count", 0, lambda v: D.iterate(ELEMENT, v)),
    ("Derivation.degree", "degree bound", 0, lambda v: D.degree(ELEMENT, v)),
    ("element JSON", "exponent 's'", 0, lambda v: QuotElem.from_json_list(TOY, [{"s": v, "c": "1"}])),
]

NOT_COUNTS = [True, False, 1.0, 1.5, -1, "2", None, Fraction(1)]


def refused(least: int) -> list:
    """The values every count refuses, and 0 where the least count is 1 or more."""
    return NOT_COUNTS + [0] * (least > 0)


@pytest.fixture
def nothing_built(monkeypatch):
    """Any ring, solve, chain, power or derivation step fails the test loudly."""

    def built(*args, **kwargs):
        raise AssertionError("work started before the count check")

    monkeypatch.setattr(rings, "_coerce_x_polys", built)
    monkeypatch.setattr(cylinders._Step, "solve", built)
    monkeypatch.setattr(cylinders, "_compose_steps", built)
    monkeypatch.setattr(derivations.Derivation, "_orbit", built)
    for cls in (MultiPoly, QuotElem, GradedElem):
        monkeypatch.setattr(cls, "__mul__", built)


@pytest.mark.parametrize(
    "call,what,least",
    [(call, what, least) for _, what, least, call in ENTRY_POINTS],
    ids=[f"{name}-{what}" for name, what, *_ in ENTRY_POINTS],
)
def test_counts_are_refused_before_any_work(nothing_built, call, what, least):
    for bad in refused(least):
        if bad is None and what == "degree bound":
            continue  # None asks for the default budget
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be an integer >= {least}, got {bad!r}')}$"):
            call(bad)


def test_a_size_step_holds_p_as_its_ring_does():
    step = DanielewskiStep(2, SIZE_P)
    assert step.p_coeffs == RingPresentation.danielewski(2, SIZE_P).p_coeffs
    assert step == DanielewskiStep(2, tuple(SIZE_P))
    assert hash(step) == hash(DanielewskiStep(2, SIZE_P))
    assert (step.n, step.constant()) == (2, 1)
