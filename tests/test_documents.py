"""The document layer: one JSON round trip, one strict key check, one verdict rule."""

from __future__ import annotations

import json

import pytest

import lndfilt.automorphisms
import lndfilt.cylinders
import lndfilt.rings
from lndfilt.automorphisms import AutParams, RingAutomorphism, build_auto
from lndfilt.checks import CheckReport
from lndfilt.cylinders import FullStep, IsoCertificate, PolyEndo, solve_step
from lndfilt.polynomials import read_object
from lndfilt.rings import RingPresentation, toy_ring

# (reader, its module, a sample document, the keys it requires)
READERS = {
    "ring": (
        RingPresentation,
        lndfilt.rings,
        lambda: RingPresentation.danielewski(2, ["-3", "X", "0"], cylinder=True),
        ("family", "n", "P"),
    ),
    "endomorphism": (PolyEndo, lndfilt.cylinders, lambda: solve_step(FullStep(1, 1)), ("vars", "images")),
    "parameter": (AutParams, lndfilt.automorphisms, lambda: AutParams.make("3/2", "-7", "X^2 - 1/3"), ("lambda", "mu")),
}


@pytest.mark.parametrize("document", sorted(READERS))
def test_readers_round_trip_and_share_the_key_check(document, monkeypatch):
    cls, module, sample, required = READERS[document]
    seen = []

    def spy(data, what, *keys):
        seen.append(what)
        return read_object(data, what, *keys)

    monkeypatch.setattr(module, "read_object", spy)
    value = sample()
    assert cls.document == document
    assert cls.from_json(value.to_json()) == value
    data = value.to_json_dict()
    with pytest.raises(ValueError) as err:
        cls.from_json(json.dumps({**data, "bogus": 1}))
    assert str(err.value) == f"{document} JSON has unknown keys ['bogus']"
    for key in required:
        with pytest.raises(ValueError) as err:
            cls.from_json(json.dumps({k: v for k, v in data.items() if k != key}))
        assert str(err.value) == f"{document} JSON lacks key {key!r}"
    assert seen == [document] * (2 + len(required))
    # load_json names the document too
    with pytest.raises(ValueError) as err:
        cls.from_json("[]")
    assert str(err.value) == f"{document} JSON must be an object"


def test_write_only_documents_do_not_read_back():
    for cls in (CheckReport, IsoCertificate, RingAutomorphism):
        assert hasattr(cls, "to_json") and not hasattr(cls, "from_json"), cls
    ring = toy_ring()
    endo = solve_step(FullStep(1, 1))
    auto = build_auto(ring, AutParams.make(8, 16, "1 + X"))
    for value in (ring, endo, auto):
        assert not hasattr(value, "__dict__"), type(value)
    # endomorphisms and automorphisms share one images document
    assert PolyEndo.from_json(auto.to_json()).to_json_dict() == auto.to_json_dict()
    assert list(json.loads(endo.to_json())) == ["vars", "images"]


def test_check_report_verdict_follows_witnesses():
    report = CheckReport(check="kernel", ring="r", bound=3)
    assert report.passed and json.loads(report.to_json())["pass"] is True
    report.witnesses.append("element S: wrong degree")
    assert not report.passed and json.loads(report.to_json())["pass"] is False
    assert not CheckReport(check="kernel", ring="r", bound=3, witnesses=["w"]).passed
    with pytest.raises(TypeError):
        CheckReport(check="kernel", ring="r", bound=3, passed=True)
