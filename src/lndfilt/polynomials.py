"""Sparse multivariate polynomials over the rationals.

Polynomials are stored as a map from exponent tuples to nonzero Fraction
coefficients, relative to a fixed ordered variable set.  All arithmetic is
exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

Scalar = Union[int, Fraction]
T = TypeVar("T")


class ParseError(ValueError):
    """Syntax or name error while parsing a polynomial expression.

    Carries the 0-based offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VarSet:
    """An ordered set of variable names.

    Two polynomials interoperate only when their variable sets are equal
    (same names, same order); mixing them raises ValueError rather than
    guessing an embedding.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for nm in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
                raise ValueError(f"invalid variable name: {nm!r}")
        self.names = names
        self._index = {nm: k for k, nm in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}; varset is {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet{self.names}"


class WeightFunction:
    """Non-negative integer weights, one per variable of a varset."""

    __slots__ = ("varset", "weights")

    def __init__(self, varset: VarSet, weights: Sequence[int]):
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(varset):
            raise ValueError(f"expected {len(varset)} weights, got {len(weights)}")
        if any(w < 0 for w in weights):
            raise ValueError(f"weights must be non-negative: {weights}")
        self.varset = varset
        self.weights = weights

    def of_exponents(self, exps: Sequence[int]) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def __repr__(self) -> str:
        return f"WeightFunction({self.varset!r}, {self.weights})"


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _from_terms(varset: VarSet, terms: dict[tuple[int, ...], Fraction]) -> MultiPoly:
    """A polynomial around an already clean term map (no copy, no checks)."""
    out = MultiPoly.__new__(MultiPoly)
    out.varset = varset
    out.terms = terms
    return out


def power_by_squaring(base: T, k: int, one: Callable[[], T]) -> T:
    """base**k by binary exponentiation, for any type with an associative `*`.

    `one()` supplies the result for k = 0; every other result is a product
    of squares of base, so base itself is returned unchanged for k = 1.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return one() if result is None else result


# ---------------------------------------------------------- product kernel
#
# Products run on plain ints (after Monagan & Pearce, CASC 2007): each operand
# is scaled to integer numerators over its least common denominator, and each
# exponent tuple is packed into one int (Kronecker packing), so that a term
# pair costs one int addition and one int product.  The field width is taken
# per call from the operands' largest exponents, so a packed sum never carries
# into the next field.  Surviving terms are unpacked once, back to exponent
# tuples and Fraction coefficients.  The helpers return iterators, so that no
# list of a product's size lives beside the product itself.


def _numerators(terms: Mapping[tuple[int, ...], Fraction]) -> tuple[Iterator[int], int]:
    """The coefficients as integer numerators over their least common denominator."""
    coeffs = terms.values()
    den = lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return (c.numerator for c in coeffs), 1
    return (c.numerator * (den // c.denominator) for c in coeffs), den


def _fractions(nums: Iterable[int], den: int) -> Iterator[Fraction]:
    if den == 1:
        return map(Fraction, nums)
    return (Fraction(n, den) for n in nums)


def _scaled(c: Fraction, terms: Mapping[tuple[int, ...], Fraction]) -> Iterable[Fraction]:
    """The coefficients of terms, each times the nonzero scalar c."""
    if c == 1:
        return terms.values()
    nums, den = _numerators(terms)
    return _fractions(map(c.numerator.__mul__, nums), c.denominator * den)


def _product(
    a: Mapping[tuple[int, ...], Fraction],
    b: Mapping[tuple[int, ...], Fraction],
) -> dict[tuple[int, ...], Fraction]:
    """The term map of the product of two term maps.

    Terms come out in the order of the schoolbook double loop over a, then
    b, where a key that cancels and reappears moves to the end; so the
    order of .terms depends only on the operands' term orders.
    """
    if not a or not b:
        return {}
    if len(a) > 1 and len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # a monomial shifts and scales the other operand's terms, which stay
        # distinct, so nothing cancels
        ((exps, c),) = a.items()
        keys = (tuple(map(add, exps, e)) for e in b) if any(exps) else b
        return dict(zip(keys, _scaled(c, b)))
    # the largest exponent sum of any variable fits in `width` bits
    width = max(map(add, map(max, zip(*a)), map(max, zip(*b)))).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, width * len(next(iter(a))), width)

    def pack(exps: tuple[int, ...]) -> int:
        return sum([e << s for e, s in zip(exps, shifts)])

    def unpack(key: int) -> tuple[int, ...]:
        return tuple([(key >> s) & mask for s in shifts])

    nums_a, den_a = _numerators(a)
    nums_b, den_b = _numerators(b)
    packed_b = list(zip(map(pack, b), nums_b))
    acc: dict[int, int] = {}
    get = acc.get
    for ka, ca in zip(map(pack, a), nums_a):
        for kb, cb in packed_b:
            key = ka + kb
            s = get(key, 0) + ca * cb
            if s:
                acc[key] = s
            else:
                del acc[key]
    return dict(zip(map(unpack, acc), _fractions(acc.values(), den_a * den_b)))


class MultiPoly:
    """A sparse polynomial with exact rational coefficients.

    Terms live in ``self.terms``: exponent tuple -> nonzero Fraction.  The
    zero polynomial has an empty term map.  Instances are treated as
    immutable; all operations return fresh polynomials.
    """

    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.varset = varset
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            nvars = len(varset)
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {varset!r}")
                c = _as_fraction(c)
                if c != 0:
                    clean[exps] = c
        self.terms = clean

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, varset: VarSet) -> MultiPoly:
        return cls(varset)

    @classmethod
    def constant(cls, varset: VarSet, c: Scalar) -> MultiPoly:
        return cls(varset, {(0,) * len(varset): c})

    @classmethod
    def variable(cls, varset: VarSet, name: str) -> MultiPoly:
        exps = [0] * len(varset)
        exps[varset.index(name)] = 1
        return cls(varset, {tuple(exps): 1})

    @classmethod
    def monomial(cls, varset: VarSet, exps: Sequence[int], c: Scalar = 1) -> MultiPoly:
        return cls(varset, {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return self.terms.get((0,) * len(self.varset), Fraction(0))

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        """Max exponent of one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        k = self.varset.index(name)
        return max(e[k] for e in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def _check_same_varset(self, other: MultiPoly) -> None:
        if self.varset != other.varset:
            raise ValueError(f"varset mismatch: {self.varset!r} vs {other.varset!r}")

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other: object) -> MultiPoly | None:
        if isinstance(other, MultiPoly):
            self._check_same_varset(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.varset, other)
        return None

    def __add__(self, other: object) -> MultiPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        acc = dict(self.terms)
        for exps, c in q.terms.items():
            s = acc.get(exps, 0) + c
            if s:
                acc[exps] = s
            else:
                acc.pop(exps, None)
        return _from_terms(self.varset, acc)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return _from_terms(self.varset, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: object) -> MultiPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: object) -> MultiPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other: object) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return MultiPoly.zero(self.varset)
            return _from_terms(self.varset, dict(zip(self.terms, _scaled(c, self.terms))))
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return _from_terms(self.varset, _product(self.terms, q.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MultiPoly:
        return power_by_squaring(self, k, lambda: MultiPoly.constant(self.varset, 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.varset, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.varset, frozenset(self.terms.items())))

    # ---------------------------------------------------------- calculus etc.

    def derivative(self, name: str) -> MultiPoly:
        """Formal partial derivative with respect to one variable."""
        k = self.varset.index(name)
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if exps[k] == 0:
                continue
            nxt = list(exps)
            nxt[k] -= 1
            acc[tuple(nxt)] = c * exps[k]
        return _from_terms(self.varset, acc)

    def substitute(self, images: Mapping[str, MultiPoly]) -> MultiPoly:
        """Evaluate at polynomial images of the variables.

        Every variable actually occurring in self must have an image, and all
        images must share one varset (which may differ from self's).  Powers
        of each image are cached across terms.
        """
        used = [k for k in range(len(self.varset)) if any(e[k] for e in self.terms)]
        if not self.terms:
            if images:
                target = next(iter(images.values())).varset
                return MultiPoly.zero(target)
            return MultiPoly.zero(self.varset)
        target: VarSet | None = None
        for img in images.values():
            if target is None:
                target = img.varset
            elif img.varset != target:
                raise ValueError("substitution images use mixed varsets")
        if target is None:
            target = self.varset
        per_var: dict[int, MultiPoly] = {}
        for k in used:
            nm = self.varset.names[k]
            if nm not in images:
                raise ValueError(f"no substitution image for variable {nm!r}")
            per_var[k] = images[nm]
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def power(k: int, n: int) -> MultiPoly:
            key = (k, n)
            got = pow_cache.get(key)
            if got is None:
                got = per_var[k] ** n
                pow_cache[key] = got
            return got

        # every term adds into one accumulator, in the order (and with the
        # cancellations) of summing the terms one by one
        acc: dict[tuple[int, ...], Fraction] = {}
        get = acc.get
        constant_key = (0,) * len(target)
        for exps, c in self.terms.items():
            factor: MultiPoly | None = None
            for k in used:
                if exps[k]:
                    factor = power(k, exps[k]) if factor is None else factor * power(k, exps[k])
            if factor is None:
                products = [(constant_key, c)]
            else:
                products = zip(factor.terms, _scaled(c, factor.terms))
            for key, v in products:
                s = get(key, 0) + v
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return _from_terms(target, acc)

    def rename(self, target: VarSet) -> MultiPoly:
        """Transport to a varset that contains all variables used here."""
        mapping = [target.index(nm) for nm in self.varset.names]
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            out = [0] * len(target)
            for k, e in enumerate(exps):
                out[mapping[k]] = e
            acc[tuple(out)] = c
        return _from_terms(target, acc)

    def weight_degree(self, w: WeightFunction) -> int | None:
        """Max weight of a term under w; None for the zero polynomial."""
        if w.varset != self.varset:
            raise ValueError("weight function varset mismatch")
        if not self.terms:
            return None
        return max(w.of_exponents(e) for e in self.terms)

    def top_component(self, w: WeightFunction) -> MultiPoly:
        """The sum of terms of maximal w-weight (0 for the zero polynomial)."""
        d = self.weight_degree(w)
        return _from_terms(
            self.varset, {e: c for e, c in self.terms.items() if w.of_exponents(e) == d}
        )

    def divide_exact(self, divisor: MultiPoly) -> MultiPoly:
        """Exact division by a single-term divisor; raises if any term fails.

        Exactness failures are real errors in this package (they witness a
        wrong valuation in a construction), hence the loud ValueError.
        """
        self._check_same_varset(divisor)
        if len(divisor.terms) != 1:
            raise ValueError("divide_exact expects a one-term divisor")
        ((dexps, dc),) = divisor.terms.items()
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            out = tuple(a - b for a, b in zip(exps, dexps))
            if any(e < 0 for e in out):
                raise ValueError(
                    f"non-exact division: term {_format_term(self.varset, exps, c)} "
                    f"not divisible by {divisor}"
                )
            acc[out] = c / dc
        return _from_terms(self.varset, acc)

    # -------------------------------------------------------------- printing

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lex descending order (canonical print order)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, c in self.sorted_terms():
            body = _format_term(self.varset, exps, c)
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append("- " + body[1:])
            else:
                parts.append("+ " + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _format_term(varset: VarSet, exps: tuple[int, ...], c: Fraction) -> str:
    factors = []
    for nm, e in zip(varset.names, exps):
        if e == 1:
            factors.append(nm)
        elif e > 1:
            factors.append(f"{nm}^{e}")
    if not factors:
        return str(c)
    if c == 1:
        return "*".join(factors)
    if c == -1:
        return "-" + "*".join(factors)
    return str(c) + "*" + "*".join(factors)


# ------------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' int)?
    atom   := int ('/' int)? | name | '(' expr ')'

    '/' only forms rational literals p/q; it is not general division.
    Parentheses and unary minus nest at most MAX_NESTING deep together, so
    that hostile input fails with ParseError, well before the interpreter's
    recursion limit.
    """

    MAX_NESTING = 100

    def __init__(self, tokens: list[tuple[str, str, int]], varset: VarSet, length: int):
        self.tokens = tokens
        self.varset = varset
        self.pos = 0
        self.length = length
        self.depth = 0

    def enter(self, at: int) -> None:
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            raise ParseError(f"nesting deeper than {self.MAX_NESTING} levels", at)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def expr(self) -> MultiPoly:
        p = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                self.take()
                q = self.term()
                p = p + q if tok[1] == "+" else p - q
            else:
                return p

    def term(self) -> MultiPoly:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> MultiPoly:
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.take()
            self.enter(tok[2])
            p = -self.factor()
            self.depth -= 1
            return p
        p = self.atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "int":
                raise ParseError(f"expected integer exponent, found {etok[1]!r}", etok[2])
            p = p ** int(etok[1])
        return p

    def atom(self) -> MultiPoly:
        tok = self.take()
        kind, text, at = tok
        if kind == "int":
            value = Fraction(int(text))
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den = self.take()
                if den[0] != "int":
                    raise ParseError(f"expected integer denominator, found {den[1]!r}", den[2])
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                value = Fraction(int(text), int(den[1]))
            return MultiPoly.constant(self.varset, value)
        if kind == "name":
            if text not in self.varset:
                raise ParseError(f"unknown variable {text!r}", at)
            return MultiPoly.variable(self.varset, text)
        if kind == "op" and text == "(":
            self.enter(at)
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected token {text!r}", at)


def parse_poly(text: str, varset: VarSet) -> MultiPoly:
    """Parse an expression with +, -, *, ^, parentheses and p/q literals.

    Multiplication must be explicit ("2*X", not "2X").  Unknown variable
    names, syntax errors and parentheses or unary minus nested more than
    100 levels deep raise ParseError with a position.
    """
    return _Parser(_tokenize(text), varset, len(text)).parse()
