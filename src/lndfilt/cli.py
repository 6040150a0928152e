"""Command-line front end.

Every subcommand is a thin wrapper over exactly one library operation.
Exit codes: 0 on success, 1 when a verification or degree comparison fails,
2 for usage and parse errors and for an --out file that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
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
from .cylinders import IsoCertificate, compose_chain, compose_danielewski_chain
from .derivations import BudgetExceededError, canonical_derivation
from .graded import gr_leading, hat_ideal_tops
from .polynomials import ParseError, dump_json
from .rings import RingPresentation, basis_monomials, toy_ring

# the largest index `filtration` lists; each degree up to the index has
# exactly one basis monomial, so the output grows linearly with it
MAX_FILTRATION_INDEX = 10_000
# the most applications of D that `deg` and `derive` make: `deg --bound` and
# `derive --times` are capped here, and `deg` refuses an element whose
# closed-form degree d would need d + 1 > MAX_DERIVATION_APPLICATIONS
# applications; each application can grow the element, so the time is not
# linear in the count (deg of Z^200 on the toy ring makes 801 of them)
MAX_DERIVATION_APPLICATIONS = 1000
# the largest `verify-suite --bound`; the kernel window's dense matrix grows
# quadratically with it: on the toy ring the suite at bound 100 took 2.3 s
# and 36 MiB peak RSS (160: 6.3 s, 67 MiB; 200: 9.4 s, 96 MiB; single runs
# on a 2-vCPU guest, Python 3.11)
MAX_SUITE_BOUND = 100
# the most steps `cyliso` and `danielewski-cyliso` chain, the length that
# certified chains are meant to reach; every step and endpoint ring is built
# before the first solve, so a longer chain is refused up front
MAX_CHAIN_STEPS = 10


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _read(path: str, what: str, parser: argparse.ArgumentParser) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        parser.error(f"cannot read {what} file: {err}")


def _load_ring(args, parser: argparse.ArgumentParser) -> RingPresentation:
    if getattr(args, "toy", False):
        return toy_ring()
    path = getattr(args, "ring", None)
    if not path:
        parser.error("provide --ring FILE or --toy")
    return RingPresentation.from_json(_read(path, "ring", parser))


def _load_params(args, parser: argparse.ArgumentParser) -> AutParams:
    return AutParams.from_json(_read(args.params, "parameter", parser))


def _emit(args, data: dict, human: str) -> None:
    print(dump_json(data) if args.json else human)


def _check_out(out: str) -> None:
    """Refuse an --out that names a directory or lies in none, before any work."""
    if Path(out).is_dir():
        raise ValueError(f"cannot write output file: {out!r} is a directory")
    if not Path(out).parent.is_dir():
        raise ValueError(f"cannot write output file: {str(Path(out).parent)!r} is not a directory")


def _write_json(args, data: dict) -> None:
    text = dump_json(data)
    out = getattr(args, "out", None)
    if out:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as err:
            raise ValueError(f"cannot write output file: {err}") from None
    else:
        print(text)


def _degree_str(value: int | None) -> str:
    return "-infinity" if value is None else str(value)


def cmd_deg(args, parser) -> int:
    cap = MAX_DERIVATION_APPLICATIONS
    if args.bound is not None and args.bound > cap:
        parser.error(f"--bound must be at most {cap}")
    ring = _load_ring(args, parser)
    elem = ring.element(args.element)
    derivation = canonical_derivation(ring)
    monomial = elem.degree()
    if monomial is not None and monomial >= cap:
        parser.error(
            f"the element has closed-form degree {monomial}; its iteration would "
            f"need more than {cap} applications of D"
        )
    bound = args.bound if args.bound is not None else min(derivation.default_budget(elem), cap)
    iterated = derivation.degree(elem, bound=bound)
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
    if not 0 <= args.times <= MAX_DERIVATION_APPLICATIONS:
        parser.error(f"--times must be between 0 and {MAX_DERIVATION_APPLICATIONS}")
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
    if not 0 <= args.index <= MAX_FILTRATION_INDEX:
        parser.error(f"the filtration index must be between 0 and {MAX_FILTRATION_INDEX}")
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


def _write_chain(args, cert: IsoCertificate) -> int:
    """Write a chain's endomorphism (cert.endo, for every length) and certificate."""
    data = cert.to_json_dict()
    _write_json(args, {"endo": data["endo"], "certificate": data})
    if args.out:
        print(f"certificate: {'pass' if cert.passed else 'FAIL'} -> {args.out}")
    return 0 if cert.passed else 1


def _check_chain_span(args, parser) -> None:
    if args.from_ < 1 or args.to <= args.from_:
        parser.error("need --to > --from >= 1")
    if args.to - args.from_ > MAX_CHAIN_STEPS:
        parser.error(f"a chain has at most {MAX_CHAIN_STEPS} steps, got {args.to - args.from_}")


def cmd_cyliso(args, parser) -> int:
    if args.n < 1:
        parser.error("need -n >= 1")
    _check_chain_span(args, parser)
    _, cert = compose_chain(args.n, args.from_, args.to)
    return _write_chain(args, cert)


def cmd_danielewski_cyliso(args, parser) -> int:
    _check_chain_span(args, parser)
    coeffs = [piece.strip() for piece in args.poly.split(",")]
    if len(coeffs) < 2:
        parser.error("--poly needs the d >= 2 coefficients f_0,...,f_{d-1}")
    _, cert = compose_danielewski_chain(args.from_, args.to, coeffs)
    return _write_chain(args, cert)


def cmd_verify_suite(args, parser) -> int:
    if args.bound is not None and args.bound > MAX_SUITE_BOUND:
        parser.error(f"--bound must be at most {MAX_SUITE_BOUND}")
    ring = _load_ring(args, parser)
    if ring.cylinder:
        parser.error("verify-suite runs on base rings, not cylinders")
    rng = Random(2026)
    bound = args.bound
    # first, so that a bound too small for its window fails before any work
    al_chain = al_chain_check(ring, bound=bound)
    reports = [
        degree_consistency(ring, samples=120, degree_bound=10 if bound is None else bound, rng=rng),
        kernel_check(ring, degree_bound=8 if bound is None else bound),
        al_chain,
        graded_relations_check(ring, bound=bound),
        graded_property_check(ring, degree_bound=8 if bound is None else bound, rng=rng),
    ]
    ok = all(r.passed for r in reports)
    data = {"ring": ring.fingerprint(), "checks": [r.to_json_dict() for r in reports], "pass": ok}
    lines = []
    for r in reports:
        lines.append(f"{r.check}: {'pass' if r.passed else 'FAIL'}")
        lines += [f"  witness: {w}" for w in r.witnesses]
    _emit(args, data, "\n".join(lines))
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
    p.add_argument(
        "--bound",
        type=_non_negative_int,
        default=None,
        help=f"iteration budget, at most {MAX_DERIVATION_APPLICATIONS}",
    )
    p.set_defaults(func=cmd_deg)

    p = sub.add_parser("nf", help="normal form of a polynomial in the quotient")
    _add_ring_options(p)
    p.add_argument("poly", help="polynomial expression")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("derive", help="apply the canonical derivation")
    _add_ring_options(p)
    p.add_argument("poly", help="element expression")
    p.add_argument(
        "--times",
        type=int,
        default=1,
        help=f"number of applications, 0 to {MAX_DERIVATION_APPLICATIONS}",
    )
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("filtration", help="basis monomials up to a degree")
    _add_ring_options(p)
    p.add_argument("index", type=int, help=f"filtration index, 0 to {MAX_FILTRATION_INDEX}")
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
    p.add_argument("--to", type=int, required=True, help=f"target twist, at most {MAX_CHAIN_STEPS} past --from")
    p.add_argument("--out", metavar="FILE", help="write the JSON here")
    p.set_defaults(func=cmd_cyliso)

    p = sub.add_parser(
        "danielewski-cyliso", help="cylinder isomorphism chain between sizes"
    )
    p.add_argument("--from", dest="from_", type=int, required=True, help="source size")
    p.add_argument("--to", type=int, required=True, help=f"target size, at most {MAX_CHAIN_STEPS} past --from")
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
        "--bound", type=_non_negative_int, default=None, help=f"window bound, at most {MAX_SUITE_BOUND}"
    )
    p.set_defaults(func=cmd_verify_suite)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
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
