"""Shared helpers for the test suite: seeded random generators, hypothesis strategies
and the Fraction references that the integer kernels are tested against."""

from fractions import Fraction
from random import Random

from hypothesis import strategies as st

from lndfilt.polynomials import MultiPoly, VarSet, _format_coeff, _from_terms
from lndfilt.rings import RingPresentation


def random_fraction(rng: Random, span: int = 9, max_den: int = 5) -> Fraction:
    num = rng.randint(-span, span)
    return Fraction(num if num else 1, rng.randint(1, max_den))


def random_poly(
    rng: Random,
    varset: VarSet,
    max_terms: int = 6,
    max_exp: int = 4,
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in varset.names)
        terms[exps] = random_fraction(rng)
    return MultiPoly(varset, terms)


def reference_rename(p: MultiPoly, target: VarSet) -> MultiPoly:
    """p moved to target by placing each exponent at its variable's index there.

    The exponent loop MultiPoly.rename ran before it became one
    substitute_all call.
    """
    mapping = [target.index(nm) for nm in p.varset.names]
    acc: dict[tuple[int, ...], int] = {}
    for exps, n in p.nums.items():
        out = [0] * len(target)
        for k, e in enumerate(exps):
            out[mapping[k]] = e
        acc[tuple(out)] = n
    return _from_terms(target, acc, p.den)


def fresh_power_substitute(p: MultiPoly, images: dict) -> MultiPoly:
    """The reference substitution: every term raises its images afresh.

    The terms are summed by a loop of this function's own, not by
    MultiPoly.__add__, which shares its summation helper with substitute_all.
    """
    target = next(iter(images.values())).varset
    total = {}
    for exps, c in p.terms.items():
        term = MultiPoly.constant(target, c)
        for nm, e in zip(p.varset.names, exps):
            if e:
                term = term * images[nm] ** e
        for key, v in term.terms.items():
            total[key] = total.get(key, 0) + v
    return MultiPoly(target, total)


def schoolbook_substitute(p: MultiPoly, images: dict, target: VarSet) -> dict:
    """The reference substitution's term map, on plain exponent tuples and Fractions.

    Every term multiplies its images in one factor at a time, by a double
    loop over exponent tuples.  Nothing is packed, powered, grouped or
    shared between terms, and no MultiPoly arithmetic runs, so it shares no
    code with substitute_all or its product kernel.
    """
    total = {}
    for exps, c in p.terms.items():
        term = {(0,) * len(target): c}
        for nm, e in zip(p.varset.names, exps):
            for _ in range(e):
                nxt = {}
                for u, a in term.items():
                    for v, b in images[nm].terms.items():
                        key = tuple([x + y for x, y in zip(u, v)])
                        nxt[key] = nxt.get(key, 0) + a * b
                term = nxt
        for key, a in term.items():
            total[key] = total.get(key, 0) + a
    return {key: a for key, a in total.items() if a}


def reference_term(varset: VarSet, exps: tuple[int, ...], num: int, den: int) -> str:
    """The text of the term (num/den)*x^exps, one factor at a time."""
    factors = []
    for nm, e in zip(varset.names, exps):
        if e == 1:
            factors.append(nm)
        elif e > 1:
            factors.append(f"{nm}^{e}")
    if not factors:
        return _format_coeff(num, den)
    if num == den:
        return "*".join(factors)
    if num == -den:
        return "-" + "*".join(factors)
    return _format_coeff(num, den) + "*" + "*".join(factors)


def reference_str(p: MultiPoly) -> str:
    """The reference printer: terms ordered by a (sum(e), e) key each, then joined with their signs."""
    if not p.nums:
        return "0"
    parts = []
    for exps, n in sorted(p.nums.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        body = reference_term(p.varset, exps, n, p.den)
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append("- " + body[1:])
        else:
            parts.append("+ " + body)
    return " ".join(parts)


def derivative_route(derivation, p: MultiPoly) -> MultiPoly:
    """The reference D(p), unreduced: the sum over variables of dp/dx_k * D(x_k)."""
    total = MultiPoly.zero(p.varset)
    for nm in p.varset.names:
        total = total + p.derivative(nm) * derivation.images[nm].rep
    return total


def arithmetic_ring_data(ring: RingPresentation) -> tuple:
    """P, Q (None without a second relation) and the (head, relation) list, by MultiPoly arithmetic.

    The construction that RingPresentation assembles term by term: each monic
    polynomial as v^k + sum c_i(X)*v^i, and the relations X^n*Y - P and
    Q - X^e*Z - S, all by products, powers and sums.
    """
    vs = ring.varset

    def monic(name, coeffs):
        v = MultiPoly.variable(vs, name)
        out = v ** len(coeffs)
        for i, c in enumerate(coeffs):
            out = out + c.rename(vs) * (v**i)
        return out

    def head(name, power):
        return tuple(power if nm == name else 0 for nm in vs.names)

    x, s, y = (MultiPoly.variable(vs, nm) for nm in ("X", "S", "Y"))
    p = monic("S", ring.p_coeffs)
    rels = [(head("S", ring.d), x**ring.n * y - p)]
    q = None
    if ring.q_coeffs:
        q = monic("Y", ring.q_coeffs)
        rels.append((head("Y", ring.m), q - x**ring.e * MultiPoly.variable(vs, "Z") - s))
    return p, q, rels


def grid_rings() -> list[RingPresentation]:
    """Full-family rings with P = S^d + 1, Q = Y^m over a parameter grid."""
    rings = []
    for n in (1, 2, 3):
        for e in (1, 2):
            for d in (2, 3):
                for m in (2, 3):
                    p = ["1"] + ["0"] * (d - 1)
                    q = ["0"] * m
                    rings.append(RingPresentation.full(n, e, p, q))
    return rings


def mixed_small_rings() -> list[RingPresentation]:
    """A handful of rings with nonzero coefficient tails, for rewriting tests."""
    return [
        RingPresentation.full(2, 1, ["0", "0"], ["0", "0"]),
        RingPresentation.full(1, 1, ["1", "0"], ["0", "0"]),
        RingPresentation.full(2, 2, ["X^2", "X", "0"], ["X", "0"]),
        RingPresentation.full(3, 1, ["1 + X^3", "0"], ["2*X", "0", "0"]),
        RingPresentation.full(2, 0, ["1", "X"], ["0", "1"]),
        RingPresentation.danielewski(1, ["-1", "0"]),
        RingPresentation.danielewski(2, ["1", "0", "X^2", "0"]),
    ]


X_ONLY = VarSet(("X",))
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def x_polys(draw):
    """A polynomial in X of degree <= 2 with rational coefficients, maybe 0."""
    return MultiPoly(X_ONLY, {(k,): draw(fractions) for k in range(draw(st.integers(0, 3)))})


@st.composite
def renamings(draw):
    """A polynomial and a varset holding its variables in another order, with extra names."""
    pool = ["A", "B", "C", "D", "E", "F"]
    names = draw(st.permutations(pool))
    source = VarSet(names[: draw(st.integers(0, 4))])
    target = list(draw(st.permutations(names[: len(source) + draw(st.integers(0, 2))])))
    exps = st.tuples(*[st.integers(0, 5)] * len(source))
    terms = draw(st.dictionaries(exps, fractions, max_size=6))
    return MultiPoly(source, terms), VarSet(target)


@st.composite
def rings(draw):
    cylinder = draw(st.booleans())
    d = draw(st.integers(2, 3))
    p_coeffs = [draw(x_polys()) for _ in range(d)]
    if draw(st.booleans()):
        return RingPresentation.danielewski(draw(st.integers(1, 3)), p_coeffs, cylinder)
    n = draw(st.integers(1, 3))
    e = draw(st.integers(1 if n == 1 else 0, 2))
    q_coeffs = [draw(x_polys()) for _ in range(draw(st.integers(2, 3)))]
    return RingPresentation.full(n, e, p_coeffs, q_coeffs, cylinder)


# the three danielewski shapes of bench/workloads.py
DANIELEWSKI_RINGS = [
    RingPresentation.danielewski(1, ["-1", "0"]),
    RingPresentation.danielewski(2, ["1", "0", "X^2", "0"]),
    RingPresentation.danielewski(3, ["2", "X", "0"]),
]


# ring JSON outside the automorphism family, each with the message that
# refuses it: a cylinder, a danielewski ring, Q != Y^m and f_{d-1} != 0
OUTSIDE_AUTOMORPHISM_FAMILY = [
    (
        {"family": "full", "n": 2, "e": 1, "P": ["1", "0"], "Q": ["0", "0"], "cylinder": True},
        "automorphisms act on the base ring, not its cylinder",
    ),
    ({"family": "danielewski", "n": 1, "P": ["1", "0"]}, "the automorphism family lives on the full family"),
    (
        {"family": "full", "n": 2, "e": 1, "P": ["0", "0"], "Q": ["1", "0"]},
        "the automorphism family needs Q = Y^m (all g_j = 0)",
    ),
    (
        {"family": "full", "n": 2, "e": 1, "P": ["0", "X"], "Q": ["0", "0"]},
        "the automorphism family needs f_{d-1} = 0",
    ),
]


# fixed rings with rational tails, so that td != 1 is always covered
RATIONAL_RINGS = [
    RingPresentation.danielewski(1, ["3/4", "1/2*X", "0"]),
    RingPresentation.full(1, 1, ["3/4", "1/2*X"], ["2/3*X", "5/7"]),
    RingPresentation.full(2, 1, ["1/3 + X^2", "0", "1/5*X"], ["1/2", "0"], cylinder=True),
]


def _add_into(acc: dict, key: tuple[int, ...], c: Fraction) -> None:
    v = acc.get(key, 0) + c
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def reference_rules(ring: RingPresentation, strategy: str) -> list:
    """The rules head -> head - rel/c with Fraction tails, in strategy order."""
    rules = []
    for index, (head, rel) in enumerate(ring._relations()):
        scale = 1 / rel.terms[head]
        tail = MultiPoly.monomial(ring.varset, head) - rel * scale
        var = next(k for k, power in enumerate(head) if power)
        rules.append((var, head[var], tuple(tail.terms.items()), index, scale))
    return rules if strategy == "s_first" else rules[::-1]


def reference_normal_form(ring: RingPresentation, p: MultiPoly, strategy: str):
    """Representative and cofactor term maps by the pass loop over Fractions.

    Each pass rewrites every monomial that was reducible at its start, one
    Fraction product and one Fraction sum per produced term.
    """
    rules = reference_rules(ring, strategy)
    cofactors = [{} for _ in rules]
    current = dict(p.terms)
    while True:
        todo = []
        for exps in current:
            for rule in rules:
                if exps[rule[0]] >= rule[1]:
                    todo.append((exps, rule))
                    break
        if not todo:
            return current, cofactors
        for exps, (var, power, tail, index, scale) in todo:
            # an earlier rewrite in this pass may have cancelled the term
            c = current.pop(exps, None)
            if c is None:
                continue
            base = list(exps)
            base[var] -= power
            for texps, tc in tail:
                _add_into(current, tuple(b + t for b, t in zip(base, texps)), c * tc)
            _add_into(cofactors[index], tuple(base), c * scale)


def reference_basis(ring: RingPresentation, degree_bound: int) -> list:
    """basis_monomials written out per family: (degree, (l, j, i)) with l < d,
    j < m and i free on full rings, l < d and j free on danielewski rings."""
    if degree_bound < 0:
        return []
    d, m = ring.d, ring.m
    out = []
    if ring.family == "full":
        for i in range(degree_bound // (m * d) + 1):
            for j in range(m):
                for l in range(d):
                    deg = l + d * j + m * d * i
                    if deg <= degree_bound:
                        out.append((deg, (l, j, i)))
    else:
        for j in range(degree_bound // d + 1):
            for l in range(d):
                deg = l + d * j
                if deg <= degree_bound:
                    out.append((deg, (l, j, 0)))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def leibniz_reference(derivation, terms: dict) -> dict:
    """D of a term map by the Leibniz rule on exponent tuples and Fractions, unreduced.

    Every term c*x^a adds c * a_k * m * x^(a - e_k + u) for each variable k
    with a_k > 0 and each term m*x^u of D(x_k): no packing, no integer
    table and no MultiPoly arithmetic.
    """
    out = {}
    for exps, c in terms.items():
        for k, nm in enumerate(derivation.ring.varset.names):
            if exps[k]:
                for u, m in derivation.images[nm].rep.terms.items():
                    key = tuple(a + b - (j == k) for j, (a, b) in enumerate(zip(exps, u)))
                    _add_into(out, key, c * exps[k] * m)
    return out


def count_widenings(monkeypatch) -> list:
    """Record (width, largest exponent) of every term map moved to double width."""
    from lndfilt.polynomials import _Packing

    widths = []
    real = _Packing.widen

    def widen(self, terms):
        widths.append((self.width, max((max(exps) for exps in self.tuples(terms)), default=0)))
        return real(self, terms)

    monkeypatch.setattr(_Packing, "widen", widen)
    return widths


def count_applications(monkeypatch, calls) -> None:
    """Count into calls what the orbits of every derivation run.

    "_orbit" counts runs of the one loop that applies D and "steps" the
    applications that each run reports.  "table reads" counts every lookup in
    the step table, which a step makes once per term of its input, so k
    applications from a read the term counts of a, D(a), ..., D^(k-1)(a)
    (orbit_reads).
    """
    from lndfilt.derivations import Derivation

    real_orbit, real_table = Derivation._orbit, Derivation._step_table

    class Reads(dict):
        def __getitem__(self, key):
            calls["table reads"] += 1
            return dict.__getitem__(self, key)

    def orbit(self, *args):
        out = real_orbit(self, *args)
        calls["_orbit"] += 1
        calls["steps"] += out[3]
        return out

    def step_table(self, packing):
        table = real_table(self, packing)
        return table and (*table[:2], Reads(table[2]))

    monkeypatch.setattr(Derivation, "_orbit", orbit)
    monkeypatch.setattr(Derivation, "_step_table", step_table)


def orbit_reads(derivation, a, k: int) -> int:
    """The step-table reads of k applications of the derivation from a."""
    return sum(len(derivation.iterate(a, i).rep.nums) for i in range(k))


def reference_verify_auto(ring: RingPresentation, params) -> list:
    """The witnesses of verify_auto as it was before it derived Y and Z.

    Both inverse composites are expanded on all four generators.  The maps
    come from automorphisms.build_auto and automorphisms.inverse_params,
    looked up on every call, so a test that patches either patches this
    reference too.
    """
    from lndfilt import automorphisms
    from lndfilt.derivations import canonical_derivation
    from lndfilt.polynomials import substitute_all

    automorphisms._require_normalized(ring)
    witnesses = []
    try:
        auto = automorphisms.build_auto(ring, params)
    except ValueError as err:
        return [str(err)]
    relations = ring.relation_polys()
    for rel, residual in zip(relations, substitute_all(relations, auto.images)):
        if not residual.is_zero():
            witnesses.append(f"relation {rel} maps to {residual}")
    D = canonical_derivation(ring)
    expected = {"X": 0, "S": 1, "Y": ring.d, "Z": ring.m * ring.d}
    for nm, want in expected.items():
        got = D.degree(auto.images[nm])
        if got != want:
            witnesses.append(f"degree of image of {nm} is {got}, expected {want}")
    inv = automorphisms.build_auto(ring, automorphisms.inverse_params(ring, params))
    sides = (("left", inv._images_after(auto)), ("right", auto._images_after(inv)))
    for nm in ring.varset.names:
        generator = ring.generator(nm)
        for side, images in sides:
            if images[nm] != generator:
                witnesses.append(f"inverse fails on {nm} ({side})")
    return witnesses
