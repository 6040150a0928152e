"""Command-line front end.

Every subcommand is a thin wrapper over exactly one library operation.
Exit codes: 0 on success, 1 when a verification or degree comparison fails,
2 for usage and parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

from .automorphisms import AutParams, build_auto, check_params, verify_auto
from .checks import (
    al_chain_check,
    degree_consistency,
    graded_property_check,
    graded_relations_check,
    kernel_check,
)
from .cylinders import compose_chain, compose_danielewski_chain
from .derivations import BudgetExceededError, canonical_derivation
from .graded import gr_leading, hat_ideal_tops
from .polynomials import ParseError, parse_poly
from .rings import RingPresentation, basis_monomials, toy_ring


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_ring(args, parser: argparse.ArgumentParser) -> RingPresentation:
    if getattr(args, "toy", False):
        return toy_ring()
    path = getattr(args, "ring", None)
    if not path:
        parser.error("provide --ring FILE or --toy")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        parser.error(f"cannot read ring file: {err}")
    return RingPresentation.from_json(text)


def _load_params(args, parser: argparse.ArgumentParser) -> AutParams:
    try:
        text = Path(args.params).read_text(encoding="utf-8")
    except OSError as err:
        parser.error(f"cannot read parameter file: {err}")
    return AutParams.from_json(text)


def _emit(args, data: dict, human: str) -> None:
    print(json.dumps(data, indent=2) if args.json else human)


def _write_json(args, data: dict) -> None:
    text = json.dumps(data, indent=2)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _degree_str(value: int | None) -> str:
    return "-infinity" if value is None else str(value)


def cmd_deg(args, parser) -> int:
    ring = _load_ring(args, parser)
    elem = ring.element(args.element)
    derivation = canonical_derivation(ring)
    monomial = elem.degree()
    iterated = derivation.degree(elem, bound=args.bound)
    match = monomial == iterated
    data = {
        "element": str(elem),
        "monomial_formula": monomial,
        "iteration": iterated,
        "match": match,
        "degree": monomial if match else None,
    }
    if match:
        _emit(args, data, _degree_str(monomial))
    else:
        _emit(
            args,
            data,
            f"MISMATCH: monomial formula {_degree_str(monomial)},"
            f" iteration {_degree_str(iterated)}",
        )
    return 0 if match else 1


def cmd_nf(args, parser) -> int:
    ring = _load_ring(args, parser)
    elem = ring.element(args.poly)
    data = {"input": args.poly, "normal_form": str(elem), "terms": elem.to_json_list()}
    _emit(args, data, str(elem))
    return 0


def cmd_derive(args, parser) -> int:
    ring = _load_ring(args, parser)
    if args.times < 0:
        parser.error("--times must be >= 0")
    derivation = canonical_derivation(ring)
    value = derivation.iterate(ring.element(args.poly), args.times)
    data = {
        "input": args.poly,
        "times": args.times,
        "result": str(value),
        "terms": value.to_json_list(),
    }
    _emit(args, data, str(value))
    return 0


def _basis_label(ring: RingPresentation, exps: tuple[int, int, int]) -> str:
    l, j, i = exps
    parts = []
    for sym, power in (("s", l), ("y", j), ("z", i)):
        if power == 1:
            parts.append(sym)
        elif power > 1:
            parts.append(f"{sym}^{power}")
    return "*".join(parts) if parts else "1"


def cmd_filtration(args, parser) -> int:
    ring = _load_ring(args, parser)
    if args.index < 0:
        parser.error("the filtration index must be >= 0")
    groups: dict[int, list[str]] = {}
    for degree, exps in basis_monomials(ring, args.index):
        groups.setdefault(degree, []).append(_basis_label(ring, exps))
    lines = [
        f"degree {degree}: " + ", ".join(labels)
        for degree, labels in sorted(groups.items())
    ]
    data = {
        "index": args.index,
        "groups": [
            {"degree": degree, "monomials": labels}
            for degree, labels in sorted(groups.items())
        ],
    }
    _emit(args, data, "\n".join(lines))
    return 0


def cmd_gr(args, parser) -> int:
    ring = _load_ring(args, parser)
    elem = ring.element(args.element)
    if elem.is_zero():
        print("the zero element has no leading class", file=sys.stderr)
        return 1
    leading = gr_leading(elem)
    data = {"grade": leading.grade, "class": str(leading.part)}
    _emit(args, data, str(leading))
    return 0


def cmd_hatideal(args, parser) -> int:
    ring = _load_ring(args, parser)
    tops = hat_ideal_tops(ring)
    data = {"ring": ring.fingerprint(), "tops": [str(t) for t in tops]}
    _emit(args, data, "\n".join(str(t) for t in tops))
    return 0


def cmd_auto_build(args, parser) -> int:
    ring = _load_ring(args, parser)
    params = _load_params(args, parser)
    violations = check_params(ring, params)
    if violations:
        for line in violations:
            print(f"invalid parameters: {line}", file=sys.stderr)
        return 1
    auto = build_auto(ring, params)
    _write_json(args, auto.to_json_dict())
    return 0


def cmd_auto_verify(args, parser) -> int:
    ring = _load_ring(args, parser)
    params = _load_params(args, parser)
    report = verify_auto(ring, params)
    _emit(args, report.to_json_dict(), str(report))
    return 0 if report.passed else 1


def cmd_cyliso(args, parser) -> int:
    if args.n < 1:
        parser.error("need -n >= 1")
    if args.from_ < 1 or args.to <= args.from_:
        parser.error("need --to > --from >= 1")
    endo, cert = compose_chain(args.n, args.from_, args.to)
    _write_json(args, {"endo": endo.to_json_dict(), "certificate": cert.to_json_dict()})
    if args.out:
        print(f"certificate: {'pass' if cert.passed else 'FAIL'} -> {args.out}")
    return 0 if cert.passed else 1


def cmd_danielewski_cyliso(args, parser) -> int:
    if args.from_ < 1 or args.to <= args.from_:
        parser.error("need --to > --from >= 1")
    coeffs = [piece.strip() for piece in args.poly.split(",")]
    if len(coeffs) < 2:
        parser.error("--poly needs the d >= 2 coefficients f_0,...,f_{d-1}")
    endo, cert = compose_danielewski_chain(args.from_, args.to, coeffs)
    _write_json(args, {"endo": endo.to_json_dict(), "certificate": cert.to_json_dict()})
    if args.out:
        print(f"certificate: {'pass' if cert.passed else 'FAIL'} -> {args.out}")
    return 0 if cert.passed else 1


def cmd_verify_suite(args, parser) -> int:
    ring = _load_ring(args, parser)
    if ring.cylinder:
        parser.error("verify-suite runs on base rings, not cylinders")
    rng = Random(2026)
    bound = args.bound
    reports = [
        degree_consistency(ring, samples=120, degree_bound=bound or 10, rng=rng),
        kernel_check(ring, degree_bound=bound or 8),
        al_chain_check(ring, bound=bound),
        graded_relations_check(ring, bound=bound),
        graded_property_check(ring, degree_bound=bound or 8, rng=rng),
    ]
    ok = all(r.passed for r in reports)
    if args.json:
        print(
            json.dumps(
                {
                    "ring": ring.fingerprint(),
                    "checks": [r.to_json_dict() for r in reports],
                    "pass": ok,
                },
                indent=2,
            )
        )
    else:
        for r in reports:
            print(f"{r.check}: {'pass' if r.passed else 'FAIL'}")
            for w in r.witnesses:
                print(f"  witness: {w}")
    return 0 if ok else 1


def _add_ring_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring", metavar="FILE", help="ring presentation JSON file")
    p.add_argument("--toy", action="store_true", help="use the built-in example surface")
    p.add_argument("--json", action="store_true", help="emit JSON instead of plain text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lndfilt",
        description="degree filtrations, graded algebras and cylinder isomorphisms "
        "for twisted danielewski-type surface rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deg", help="filtration degree of an element, two ways")
    _add_ring_options(p)
    p.add_argument("element", help="element expression, e.g. 'S*Y + 3'")
    p.add_argument("--bound", type=_non_negative_int, default=None, help="iteration budget")
    p.set_defaults(func=cmd_deg)

    p = sub.add_parser("nf", help="normal form of a polynomial in the quotient")
    _add_ring_options(p)
    p.add_argument("poly", help="polynomial expression")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("derive", help="apply the canonical derivation")
    _add_ring_options(p)
    p.add_argument("poly", help="element expression")
    p.add_argument("--times", type=int, default=1, help="number of applications")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("filtration", help="basis monomials up to a degree")
    _add_ring_options(p)
    p.add_argument("index", type=int, help="filtration index")
    p.set_defaults(func=cmd_filtration)

    p = sub.add_parser("gr", help="leading class in the associated graded algebra")
    _add_ring_options(p)
    p.add_argument("element", help="element expression")
    p.set_defaults(func=cmd_gr)

    p = sub.add_parser("hatideal", help="top components of the defining relations")
    _add_ring_options(p)
    p.set_defaults(func=cmd_hatideal)

    p = sub.add_parser("auto-build", help="build an automorphism from parameters")
    _add_ring_options(p)
    p.add_argument("--params", metavar="FILE", required=True, help="parameter JSON file")
    p.add_argument("--out", metavar="FILE", help="write the images JSON here")
    p.set_defaults(func=cmd_auto_build)

    p = sub.add_parser("auto-verify", help="verify an automorphism end to end")
    _add_ring_options(p)
    p.add_argument("--params", metavar="FILE", required=True, help="parameter JSON file")
    p.set_defaults(func=cmd_auto_verify)

    p = sub.add_parser("cyliso", help="cylinder isomorphism chain between twists")
    p.add_argument("-n", type=int, required=True, help="shared size parameter")
    p.add_argument("--from", dest="from_", type=int, required=True, help="source twist")
    p.add_argument("--to", type=int, required=True, help="target twist")
    p.add_argument("--out", metavar="FILE", help="write the JSON here")
    p.set_defaults(func=cmd_cyliso)

    p = sub.add_parser(
        "danielewski-cyliso", help="cylinder isomorphism chain between sizes"
    )
    p.add_argument("--from", dest="from_", type=int, required=True, help="source size")
    p.add_argument("--to", type=int, required=True, help="target size")
    p.add_argument(
        "--poly",
        required=True,
        help="comma-separated coefficients f_0,...,f_{d-1} of P, e.g. '1,0,X^2,0'",
    )
    p.add_argument("--out", metavar="FILE", help="write the JSON here")
    p.set_defaults(func=cmd_danielewski_cyliso)

    p = sub.add_parser("verify-suite", help="run the full verification battery")
    _add_ring_options(p)
    p.add_argument(
        "--bound", type=_non_negative_int, default=None, help="window bound for the checks"
    )
    p.set_defaults(func=cmd_verify_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
