"""Randomized and exact linear-algebra verification of the filtration facts.

Each check returns a CheckReport and never raises on mathematical failure;
failures are recorded as witnesses so that callers (CLI, acceptance tests)
can surface them.  All linear algebra is exact: integer fraction-free
elimination, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from random import Random

from .derivations import BudgetExceededError, Derivation, canonical_derivation
from .graded import graded_generators, gr_leading, hat_ideal_tops
from .polynomials import Document, MultiPoly, parse_poly
from .rings import QuotElem, RingPresentation, _elem, basis_monomials


@dataclass
class CheckReport(Document):
    """One check's outcome on one ring; it passes exactly when it records no witness."""

    check: str
    ring: str
    bound: int
    witnesses: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "ring": self.ring,
            "bound": self.bound,
            "pass": self.passed,
            "witnesses": list(self.witnesses),
        }

    def __str__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        out = f"{self.check}: {state} (ring {self.ring}, bound {self.bound})"
        for w in self.witnesses:
            out += f"\n  witness: {w}"
        return out


def random_element(
    ring: RingPresentation,
    rng: Random,
    degree_bound: int,
    x_cap: int = 3,
) -> QuotElem:
    """A random element in canonical form, of 1 to 5 terms, with filtration degree <= the bound."""
    pool = basis_monomials(ring, degree_bound)
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, 5)):
        _, (l, j, i) = rng.choice(pool)
        key = ring.basis_exponents(rng.randint(0, x_cap), l, j, i)
        num = rng.randint(-9, 9)
        terms[key] = Fraction(num if num else 1, rng.randint(1, 5))
    return QuotElem(ring, MultiPoly(ring.varset, terms))


def degree_consistency(
    ring: RingPresentation,
    samples: int = 200,
    degree_bound: int = 10,
    rng: Random | None = None,
) -> CheckReport:
    """Degree by basis bookkeeping == degree by iterated derivation.

    Samples random canonical-form elements and compares the closed-form
    monomial degree with the honest nilpotency index of the canonical
    derivation.  The two computations share no code path.
    """
    rng = rng or Random(1)
    D = canonical_derivation(ring)
    witnesses: list[str] = []
    specials = [ring.zero(), ring.one(), ring.element("X^3")]
    todo = specials + [random_element(ring, rng, degree_bound) for _ in range(samples)]
    for a in todo:
        expected = a.degree()
        try:
            got = D.degree(a)
        except BudgetExceededError as err:  # budget blowups are findings, not crashes
            witnesses.append(f"element {a}: iteration failed: {err}")
            continue
        if got != expected:
            witnesses.append(
                f"element {a}: monomial degree {expected} but iterated degree {got}"
            )
        if len(witnesses) >= 5:
            break
    return CheckReport(
        check="degree-consistency",
        ring=ring.fingerprint(),
        bound=degree_bound,
        witnesses=witnesses,
    )


def _integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        den = 1
        for c in row:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in row]
        if any(ints):
            out.append(ints)
    return out


def _row_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by fraction-free elimination with per-row gcd reduction."""
    mat = _integer_rows(rows)
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for ri in range(rank, len(mat)):
            if mat[ri][col]:
                piv = ri
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for ri in range(rank + 1, len(mat)):
            q = mat[ri][col]
            if not q:
                continue
            row = [p * b - q * a for a, b in zip(prow, mat[ri])]
            g = 0
            for v in row:
                g = gcd(g, v)
            mat[ri] = [v // g for v in row] if g > 1 else row
        rank += 1
        if rank == len(mat):
            break
    return rank


def kernel_check(
    ring: RingPresentation,
    degree_bound: int = 8,
    x_cap: int = 4,
    derivation: Derivation | None = None,
) -> CheckReport:
    """The kernel of the canonical derivation meets the finite window in k[x].

    Window: all basis monomials of degree <= degree_bound times x^a with
    a <= x_cap.  Pure x-powers must map to zero; the derivation restricted to
    the span of all other window monomials must have full column rank, which
    exactly says no kernel vector has a non-x component.
    """
    D = derivation or canonical_derivation(ring)
    witnesses: list[str] = []
    columns: list[tuple[int, ...]] = []
    for _, (l, j, i) in basis_monomials(ring, degree_bound):
        columns.extend(ring.basis_exponents(a, l, j, i) for a in range(x_cap + 1))
    row_index: dict[tuple[int, ...], int] = {}
    vectors: list[dict[int, Fraction]] = []
    for key in columns:
        mono = _elem(ring, MultiPoly.monomial(ring.varset, key))
        img = D.apply(mono)
        if sum(key[1:]) == 0:
            if not img.is_zero():
                witnesses.append(f"x-power {mono} not in the kernel: image {img}")
            continue
        vec: dict[int, Fraction] = {}
        for exps, n in img.rep.nums.items():
            ri = row_index.setdefault(exps, len(row_index))
            vec[ri] = Fraction(n, img.rep.den)
        vectors.append(vec)
    nrows = len(row_index)
    dense = [
        [vec.get(ri, Fraction(0)) for ri in range(nrows)]
        for vec in vectors
    ]
    rank = _row_rank(dense)
    if rank < len(vectors):
        witnesses.append(
            f"derivation drops rank on non-x monomials: rank {rank} of {len(vectors)}; "
            "some combination outside k[x] lies in the kernel"
        )
    return CheckReport(
        check="kernel",
        ring=ring.fingerprint(),
        bound=degree_bound,
        witnesses=witnesses,
    )


def al_chain_check(
    ring: RingPresentation,
    bound: int | None = None,
) -> CheckReport:
    """Structure of the low filtration pieces, cross-checked by iteration.

    Verifies that degree <= 1 holds exactly {1, s} over k[x], that nothing
    beyond x, s enters below degree d, that y first appears in degree d and
    z in degree m*d, and that honest iteration of the derivation reproduces
    the generator degrees (including invariance under multiplying by x).
    A bound below the default, one past z's entry degree m*d (y's entry
    degree d for danielewski rings), raises ValueError: its window would
    miss that entry and report a false failure.
    """
    d, m = ring.d, ring.m
    # a closed form, deliberately independent of the basis and the derivation
    # that are derived from the relations: do not derive it from them
    z_entry = m * d if ring.family == "full" else None
    least = (z_entry or d) + 1
    if bound is None:
        bound = least
    elif bound < least:
        raise ValueError(
            f"al-chain needs a bound of at least {least}, one past the degree where "
            f"{'z' if z_entry else 'y'} enters, got {bound}"
        )
    D = canonical_derivation(ring)
    witnesses: list[str] = []
    entries = basis_monomials(ring, bound)

    low = [(deg, lji) for deg, lji in entries if deg <= 1]
    if low != [(0, (0, 0, 0)), (1, (1, 0, 0))]:
        witnesses.append(f"degree <= 1 slice is {low}, expected 1 and s only")
    for deg, (l, j, i) in entries:
        if deg <= d - 1 and (j or i):
            witnesses.append(f"monomial (l={l}, j={j}, i={i}) of degree {deg} below d={d}")
    y_first = min((deg for deg, (l, j, i) in entries if j), default=None)
    if y_first != d:
        witnesses.append(f"y enters the filtration at {y_first}, expected d={d}")
    probes = [("1", 0), ("X", 0), ("S", 1), ("X^3*S", 1), ("Y", d), ("S*Y", d + 1)]
    if z_entry is not None:
        z_first = min((deg for deg, (l, j, i) in entries if i), default=None)
        if z_first != z_entry:
            witnesses.append(f"z enters the filtration at {z_first}, expected m*d={z_entry}")
        probes.append(("Z", z_entry))
    for text, expected in probes:
        got = D.degree(ring.element(text))
        if got != expected:
            witnesses.append(f"iterated degree of {text} is {got}, expected {expected}")
    return CheckReport(
        check="al-chain",
        ring=ring.fingerprint(),
        bound=bound,
        witnesses=witnesses,
    )


def graded_relations_check(ring: RingPresentation, bound: int | None = None) -> CheckReport:
    """The leading classes satisfy the graded presentation relations.

    gr(x)^n * gr(y) == gr(s)^d and, for the full family,
    gr(x)^e * gr(z) == gr(y)^m; and these match the top components of the
    defining relations.
    """
    witnesses: list[str] = []
    g = graded_generators(ring)
    vs = ring.varset
    lhs = g["X"] ** ring.n * g["Y"]
    rhs = g["S"] ** ring.d
    if lhs != rhs:
        witnesses.append(f"gr(x)^n*gr(y) = {lhs} but gr(s)^d = {rhs}")
    # the tops written out, deliberately independent of the relations that the
    # basis, derivation and hat_ideal_tops are derived from: do not derive them
    want = [parse_poly(f"X^{ring.n}*Y - S^{ring.d}", vs)]
    if ring.family == "full":
        lhs2 = g["X"] ** ring.e * g["Z"]
        rhs2 = g["Y"] ** ring.m
        if lhs2 != rhs2:
            witnesses.append(f"gr(x)^e*gr(z) = {lhs2} but gr(y)^m = {rhs2}")
        want.append(parse_poly(f"Y^{ring.m} - X^{ring.e}*Z" if ring.e else f"Y^{ring.m} - Z", vs))
    tops = hat_ideal_tops(ring)
    if tops != want:
        witnesses.append(f"top components {[str(t) for t in tops]} != {[str(t) for t in want]}")
    return CheckReport(
        check="graded-relations",
        ring=ring.fingerprint(),
        bound=bound if bound is not None else 0,
        witnesses=witnesses,
    )


def graded_property_check(
    ring: RingPresentation,
    samples: int = 60,
    degree_bound: int = 8,
    rng: Random | None = None,
) -> CheckReport:
    """Leading classes behave like a graded multiplication.

    On random pairs: either the product of leading classes is the leading
    class of the product (degrees add), or the classes cancel at the top and
    the product's degree genuinely drops below the sum.
    """
    rng = rng or Random(7)
    witnesses: list[str] = []
    for _ in range(samples):
        a = random_element(ring, rng, degree_bound)
        b = random_element(ring, rng, degree_bound)
        if a.is_zero() or b.is_zero():
            continue
        ab = a * b
        ga, gb = gr_leading(a), gr_leading(b)
        top = ga * gb
        if top.part.is_zero():
            if not (ab.is_zero() or ab.degree() < ga.grade + gb.grade):
                witnesses.append(
                    f"top classes of {a} and {b} cancel but deg({ab}) = {ab.degree()}"
                )
        else:
            # a class's equality includes its grade, which for top is the degree sum
            if ab.is_zero() or gr_leading(ab) != top:
                witnesses.append(
                    f"gr({a})*gr({b}) = {top} but the product's leading class differs"
                )
        if len(witnesses) >= 5:
            break
    return CheckReport(
        check="graded-properties",
        ring=ring.fingerprint(),
        bound=degree_bound,
        witnesses=witnesses,
    )
