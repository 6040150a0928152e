"""Sparse multivariate polynomials over the rationals.

A polynomial is stored as a map from exponent tuples to nonzero integer
numerators over one positive denominator, in lowest terms, relative to a
fixed ordered variable set (after FLINT's fmpq_mpoly: a rational content
times an integer polynomial).  All arithmetic is exact; there is no floating
point anywhere in this package.

substitute_all is the package's one evaluation routine: it evaluates
polynomials at images of their variables that are either all polynomials over
one varset or all elements (QuotElem) of one quotient ring.  A single-term
image acts by exponent arithmetic; the others go through one shared table of
image powers, with one product per pattern of their exponents (after the
multivariate Horner schemes of Ceberio & Kreinovich, ACM SIGSAM Bull. 38(1),
2004, cut down to that one split), and all products are summed in place into
one term map.  Ring elements are evaluated through their representatives, as
polynomials.  The table, the products and the sums stay in the product
kernel's packed integer form for the whole call, with one packing width fixed
from a degree bound before the first product, and each result is converted
back once: to exponent tuples, or, at ring elements, to the integer map that
the ring's one rewrite loop reduces.
"""

from __future__ import annotations

import json
import re
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import repeat, starmap
from math import gcd, lcm
from operator import add, getitem, mul, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

Scalar = Union[int, Fraction]
T = TypeVar("T")
E = TypeVar("E")  # a substitution image: a MultiPoly, or a QuotElem


class ParseError(ValueError):
    """Syntax or name error while parsing a polynomial expression.

    Carries the 0-based offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _PowerTexts(dict):
    """The printed powers of one variable, {0: "", 1: "X", e: "X^e"}, each built on first use.

    Keyed by the exponent itself, so a table holds only the powers printed
    so far, whatever their size.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__({0: "", 1: name})
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self.name}^{e}"
        return text


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class VarSet:
    """An ordered set of variable names.

    Two polynomials interoperate only when their variable sets are equal
    (same names, same order); mixing them raises ValueError rather than
    guessing an embedding.  Rings of one shape share one VarSet object
    (rings.py), so equality first tests identity.
    """

    __slots__ = ("names", "_index", "_texts")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for nm in names:
            if not isinstance(nm, str) or not _NAME_RE.fullmatch(nm):
                raise ValueError(f"invalid variable name: {nm!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.names = names
        self._index = {nm: k for k, nm in enumerate(names)}
        self._texts: tuple[_PowerTexts, ...] | None = None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}; varset is {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def power_texts(self) -> tuple[_PowerTexts, ...]:
        """One table of printed powers per variable, kept for the printer's next call."""
        if self._texts is None:
            self._texts = tuple(map(_PowerTexts, self.names))
        return self._texts

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, VarSet) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet{self.names}"


def _is_scalar(c: object) -> bool:
    """The package's one scalar test: an int or a Fraction, and not a bool."""
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


def _count(value: object, what: str, least: int = 0) -> int:
    """The package's one count test: value, an int >= least (a bool is not); else ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _require_scalar(c: object, exps: tuple[int, ...]) -> None:
    """TypeError unless the coefficient c of the term at exps is a scalar (_is_scalar)."""
    if not _is_scalar(c):
        raise TypeError(f"coefficient {c!r} of term {exps} is not an int or Fraction")


def _from_terms(varset: VarSet, nums: dict[tuple[int, ...], int], den: int = 1) -> MultiPoly:
    """The polynomial nums/den, for nonzero numerators and den > 0: no copy, one gcd when den != 1.

    The gcd of den and all numerators is divided out, so the result is in
    lowest terms.
    """
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: n // g for e, n in nums.items()}
    out = MultiPoly.__new__(MultiPoly)
    out.varset, out.nums, out.den = varset, nums, den
    return out


def load_json(text: str, what: str, kind: type = dict, shape: str = "an object"):
    """Decode one JSON document whose top level must be of type kind.

    Both failures raise ValueError naming what the document holds, e.g.
    "bad ring JSON: ..." or "ring JSON must be an object".
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"bad {what} JSON: {err}") from None
    if not isinstance(data, kind):
        raise ValueError(f"{what} JSON must be {shape}")
    return data


def dump_json(data) -> str:
    """The package's one JSON text form: two-space indent, keys in insertion order."""
    return json.dumps(data, indent=2)


def read_object(data: Mapping, what: str, required: Sequence[str], optional: Sequence[str] = ()) -> None:
    """Check that data holds every required key and no key outside required and optional.

    Each failure raises ValueError naming what the object is, e.g.
    "ring JSON has unknown keys ['name']" or "ring JSON lacks key 'P'".
    """
    unknown = sorted(set(data) - {*required, *optional})
    if unknown:
        raise ValueError(f"{what} JSON has unknown keys {unknown}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} JSON lacks key {key!r}")


def images_json(varset: VarSet, images: Mapping) -> dict:
    """The {"vars", "images"} document of a map given on the variables of varset."""
    return {"vars": list(varset.names), "images": {nm: str(images[nm]) for nm in varset.names}}


class Document:
    """The JSON text of a class whose to_json_dict gives its document."""

    __slots__ = ()

    def to_json(self) -> str:
        return dump_json(self.to_json_dict())


class ReadableDocument(Document):
    """A Document whose from_json_dict reads it back; the class's document names it in messages."""

    __slots__ = ()

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(load_json(text, cls.document))


def ladder_power(ladder: dict[int, T], k: int, product: Callable[[T, T], T] = mul) -> T:
    """ladder[k], for a ladder {exponent: power} that holds at least the first power.

    This is the package's one power routine (MultiPoly.__pow__ raises a
    one-term polynomial by exponent arithmetic instead).  A missing power is the
    product of the largest lower power in the ladder and the power that
    remains, so that the powers 1, 2, ..., k cost one product each; when that
    lower power is under half of k, it is built as by squaring instead: an
    even power from its half, an odd one from the power below (after Knuth,
    TAOCP vol. 2, sec. 4.6.3).  Every power built is kept in the ladder, so
    a shared ladder builds each power once.  On a fresh ladder {1: base} (the
    __pow__ methods add {0: one}), base**k costs (bits - 1) squarings and
    (set bits - 1) other products, as binary exponentiation does, and base
    itself is returned for k = 1.  Each missing power lacks at most one of
    its two operands (low is in the ladder, or k - low is 1, or both are
    k/2), so the powers to build form one path, at most twice the bit length
    of k long: it is walked down first, then built up in that order.
    """
    _count(k, "exponent")
    path = []
    j = k
    while j not in ladder:
        low = max(i for i in ladder if i < j)
        if 2 * low < j:
            low = j - 1 if j % 2 else j // 2
        path.append((j, low))
        j = j - low if low in ladder else low
    for j, low in reversed(path):
        ladder[j] = product(ladder[low], ladder[j - low])
    return ladder[k]


# ---------------------------------------------------------- product kernel
#
# Products run on plain ints (after Monagan & Pearce, CASC 2007): a polynomial's
# numerators are multiplied as they are stored, the denominators once per
# product, and each exponent tuple is packed into one int (Kronecker packing),
# so that a term pair costs one int addition and one int product in
# _accumulate, the one double loop.  _rewrite and Derivation._orbit keep inline copies
# of it: through it, bench `degree` ops went 0.031-0.039 -> 0.052 ms, `nf` 0.64-0.68 -> 0.70-0.80 ms.
# The rewrite loop (rings.py) and the derivation's step table
# (derivations.py) share the key format (_Packing): field k holds the
# exponent of variable k in `width` bits, a multiple of 8 (struct.Struct packs
# and unpacks up to 64, shifts do beyond), and the top bit of each field is
# its guard bit.  Guard rule: two keys with clear guard bits add with no carry
# between fields, since each field sum is below 2**width; so such a sum is
# exact in every field, and is itself fit to add again exactly when its guard
# bits are clear.  Subtracting a fieldwise smaller key (a rule head, x_k)
# borrows nothing.  A product's width comes from a bound no exponent sum
# exceeds: MultiPoly.__mul__ takes it from its operands' largest exponents,
# substitute_all once per call from the degrees of its polynomials and
# images.  The rewrite loop cannot bound its exponents ahead, so before each
# pass it tests the guard bits of the keys it has not tested yet; when one is
# set, the pass's unconsumed input moves to double the width (_Packing.widen,
# which reads the exact fields) and the pass runs there, so a carry is never
# silent.  A derivation step tests its input keys the same way before its one
# pass.  Surviving keys are unpacked once per result, back to exponent tuples
# (_unpacked), and the numerators stay as they are; the result's denominator
# loses the gcd it shares with all of them (_from_terms).  The key helpers
# return iterators, so that no list of a product's size lives beside the
# product itself.


class _Packing:
    """The key format for exponent tuples of nvars entries in fields of width bits."""

    __slots__ = ("width", "nvars", "mask", "guard", "shifts", "pack", "keys", "tuples")

    def __init__(self, width: int, nvars: int):
        self.width, self.nvars, self.mask = width, nvars, (1 << width) - 1
        self.shifts = range(0, width * nvars, width)
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        if width <= 64:
            # one unsigned field of 1, 2, 4 or 8 bytes per variable
            fields = struct.Struct(f"<{nvars}{'BHIQ'[width.bit_length() - 4]}")
            self.pack = lambda exps: int.from_bytes(fields.pack(*exps), "little")
            self.keys = lambda tuples: map(int.from_bytes, starmap(fields.pack, tuples), repeat("little"))
            self.tuples = lambda keys: map(fields.unpack, map(int.to_bytes, keys, repeat(fields.size), repeat("little")))
        else:
            mask, shifts, places = self.mask, self.shifts, [1 << s for s in self.shifts]
            pack = self.pack = lambda exps: sum(map(mul, exps, places))
            self.keys = lambda tuples: map(pack, tuples)
            self.tuples = lambda keys: (tuple([(key >> s) & mask for s in shifts]) for key in keys)

    def widen(self, terms: Mapping[int, T]) -> tuple[dict[int, T], _Packing]:
        """terms with its keys moved to double the width, and that packing."""
        wider = _fields(2 * self.width, self.nvars)
        return dict(zip(wider.keys(self.tuples(terms)), terms.values())), wider

    def table(self, rows: Sequence[tuple]) -> tuple | None:
        """Rows (k, p, ((exps, c), ...), *rest) as (shift of k, p, ((key of exps - x_k^p, c), ...), *rest).

        None when an exponent does not fit.
        """
        if max([e for _, p, terms, *_ in rows for u, _ in terms for e in (p, *u)], default=0) >> (self.width - 1):
            return None
        return tuple(
            (self.shifts[k], p, tuple((self.pack(u) - (p << self.shifts[k]), c) for u, c in terms), *rest)
            for k, p, terms, *rest in rows
        )


@lru_cache(maxsize=None)
def _fields(width: int, nvars: int) -> _Packing:
    """The one packing of each width and number of variables."""
    return _Packing(width, nvars)


def _packing(top: int, nvars: int) -> _Packing:
    """The narrowest packing of nvars exponents that holds every exponent up to top."""
    return _fields(8 << (top.bit_length() // 8).bit_length(), nvars)


def _packed(p: MultiPoly, top: int | None = None) -> tuple[dict[int, int], int, _Packing]:
    """p's numerators under keys in the narrowest packing that holds top, p's denominator, and that packing.

    top bounds every exponent of p; by default it is p's largest exponent."""
    if top is None:
        top = max(map(max, p.nums), default=0)
    packing = _packing(top, len(p.varset))
    return dict(zip(packing.keys(p.nums), p.nums.values())), p.den, packing


def _accumulate(
    acc: dict[int, int], a: Iterable[tuple[int, int]], b: Sequence[tuple[int, int]]
) -> dict[int, int]:
    """Add the product of two packed term lists into acc, in place, and return acc.

    The double loop runs over a, then b; a key that cancels is deleted, so it
    moves to the end if it reappears.
    """
    get = acc.get
    for ka, ca in a:
        for kb, cb in b:
            key = ka + kb
            s = get(key, 0) + ca * cb
            if s:
                acc[key] = s
            else:
                del acc[key]
    return acc


def _unpacked(acc: Mapping[int, int], packing: _Packing) -> dict[tuple[int, ...], int]:
    """The numerators of acc under exponent tuples: the one conversion of a result's keys."""
    return dict(zip(packing.tuples(acc), acc.values()))


def _product(a: Mapping[tuple[int, ...], int], b: Mapping[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The integer term map of the product of two integer term maps.

    Terms come out in the order of the schoolbook double loop over a, then
    b, where a key that cancels and reappears moves to the end; so the
    order of the terms depends only on the operands' term orders.
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
        return dict(zip(keys, map(c.__mul__, b.values())))
    # the fields hold the largest exponent sum of any variable
    packing = _packing(max(map(add, map(max, zip(*a)), map(max, zip(*b)))), len(next(iter(a))))
    acc = _accumulate({}, zip(packing.keys(a), a.values()), list(zip(packing.keys(b), b.values())))
    return _unpacked(acc, packing)


class MultiPoly:
    """A sparse polynomial with exact rational coefficients.

    The term with exponent tuple e has coefficient nums[e]/den: nums maps
    exponent tuples to nonzero ints, den is a positive int, and the gcd of den
    and all numerators is 1, so each polynomial has exactly one (nums, den).
    The zero polynomial has nums == {} and den == 1.  ``terms`` is a fresh
    dict of the same terms with Fraction coefficients, for tests and the
    benchmark's counters.  Instances are treated as immutable; all
    operations return fresh polynomials.
    """

    __slots__ = ("varset", "nums", "den")

    def __init__(self, varset: VarSet, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        clean: dict[tuple[int, ...], Scalar] = {}
        if terms:
            nvars = len(varset)
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps):
                    raise ValueError(
                        f"bad exponent tuple in term {exps}: {c!r} for {varset!r}; "
                        "exponents are integers >= 0, one per variable"
                    )
                _require_scalar(c, exps)
                if c:
                    clean[exps] = c
        # over the lcm of reduced denominators, the numerators share no
        # factor with it: each prime of it keeps its full power under one term
        den = lcm(*[c.denominator for c in clean.values()])
        self.varset = varset
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.den = den

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {exps: Fraction(n, self.den) for exps, n in self.nums.items()}

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, varset: VarSet) -> MultiPoly:
        return cls(varset)

    @classmethod
    def constant(cls, varset: VarSet, c: Scalar) -> MultiPoly:
        zeros = (0,) * len(varset)
        _require_scalar(c, zeros)
        # one checked term, already in lowest terms: no cleaning pass needed
        return _from_terms(varset, {zeros: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, varset: VarSet, name: str) -> MultiPoly:
        exps = [0] * len(varset)
        exps[varset.index(name)] = 1
        # one validated term: no cleaning pass needed
        return _from_terms(varset, {tuple(exps): 1})

    @classmethod
    def monomial(cls, varset: VarSet, exps: Sequence[int], c: Scalar = 1) -> MultiPoly:
        return cls(varset, {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self.nums

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return self.coefficient((0,) * len(self.varset))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.nums.get(tuple(exps), 0), self.den)

    def _check_same_varset(self, other: MultiPoly) -> None:
        if self.varset is not other.varset and self.varset != other.varset:
            raise ValueError(f"varset mismatch: {self.varset!r} vs {other.varset!r}")

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other: object) -> MultiPoly | None:
        if isinstance(other, MultiPoly):
            self._check_same_varset(other)
            return other
        if _is_scalar(other):
            return MultiPoly.constant(self.varset, other)
        return None

    def _combine(self, q: MultiPoly, sign: int) -> MultiPoly:
        """self + sign*q, sign +-1: the one sum of __add__, __sub__ and __rsub__, q's terms after self's."""
        den = lcm(self.den, q.den)
        up, uq = den // self.den, sign * (den // q.den)
        acc = dict(self.nums) if up == 1 else {e: n * up for e, n in self.nums.items()}
        _add_terms(acc, q.nums.items() if uq == 1 else ((e, n * uq) for e, n in q.nums.items()))
        return _from_terms(self.varset, acc, den)

    def __add__(self, other: object) -> MultiPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._combine(q, 1)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return _from_terms(self.varset, {e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other: object) -> MultiPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._combine(q, -1)

    def __rsub__(self, other: object) -> MultiPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q._combine(self, -1)

    def __mul__(self, other: object) -> MultiPoly:
        if isinstance(other, MultiPoly):
            self._check_same_varset(other)
            return _from_terms(self.varset, _product(self.nums, other.nums), self.den * other.den)
        if not _is_scalar(other):
            return NotImplemented
        if not other:
            return MultiPoly.zero(self.varset)
        scale = other.numerator
        return _from_terms(self.varset, {e: n * scale for e, n in self.nums.items()}, self.den * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MultiPoly:
        if len(self.nums) == 1 and type(k) is int and k >= 0:
            # (c/b)*x^u acts by exponent arithmetic, as a single-term image
            # does in substitute_all: (c/b)^k * x^(k*u), in lowest terms
            # since c and b are coprime
            ((u, c),) = self.nums.items()
            return _from_terms(self.varset, {tuple([e * k for e in u]): c**k}, self.den**k)
        # the unit is one validated term, as in variable: no cleaning pass
        return ladder_power({0: _from_terms(self.varset, {(0,) * len(self.varset): 1}), 1: self}, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            if not _is_scalar(other):
                return NotImplemented
            other = MultiPoly.constant(self.varset, other)
        return self.varset == other.varset and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # a constant equals its scalar (__eq__), so it hashes as the scalar
        if not any(map(any, self.nums)):
            return hash(Fraction(self.nums.get((0,) * len(self.varset), 0), self.den))
        return hash((self.varset, self.den, frozenset(self.nums.items())))

    # ---------------------------------------------------------- calculus etc.

    def derivative(self, name: str) -> MultiPoly:
        """Formal partial derivative with respect to one variable."""
        k = self.varset.index(name)
        acc: dict[tuple[int, ...], int] = {}
        for exps, n in self.nums.items():
            if exps[k] == 0:
                continue
            nxt = list(exps)
            nxt[k] -= 1
            acc[tuple(nxt)] = n * exps[k]
        return _from_terms(self.varset, acc, self.den)

    def substitute(self, images: Mapping[str, E]) -> E:
        """Evaluate at polynomial or ring-element images of the variables; see substitute_all."""
        return substitute_all([self], images)[0]

    def rename(self, target: VarSet) -> MultiPoly:
        """Transport to a varset that contains all variables used here; see relabel."""
        return relabel(self, target)

    def divide_exact(self, divisor: MultiPoly) -> MultiPoly:
        """Exact division by a single-term divisor; raises if any term fails.

        Exactness failures are real errors in this package (they witness a
        wrong valuation in a construction), hence the loud ValueError.
        """
        self._check_same_varset(divisor)
        if len(divisor.nums) != 1:
            raise ValueError("divide_exact expects a one-term divisor")
        ((dexps, dn),) = divisor.nums.items()
        # (n/den) / (dn/dden) = (n*dden) / (den*dn), with the sign of dn moved up
        scale = divisor.den if dn > 0 else -divisor.den
        acc: dict[tuple[int, ...], int] = {}
        for exps, n in self.nums.items():
            out = tuple(map(sub, exps, dexps))
            if min(out, default=0) < 0:
                raise ValueError(
                    f"non-exact division: term {_from_terms(self.varset, {exps: n}, self.den)} "
                    f"not divisible by {divisor}"
                )
            acc[out] = n * scale
        return _from_terms(self.varset, acc, self.den * abs(dn))

    # -------------------------------------------------------------- printing

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponents, numerator over den) pairs in graded-lex descending order (canonical print order).

        The one order routine of every printer: two stable sorts, by the
        exponent tuples and then by their sums, both descending, order the
        terms as the key (sum(e), e) would, with no key tuple per term; a
        polynomial of one term needs neither.
        """
        nums = self.nums
        if len(nums) < 2:
            return list(nums.items())
        order = sorted(nums, reverse=True)
        order.sort(key=sum, reverse=True)
        return [(exps, nums[exps]) for exps in order]

    def __str__(self) -> str:
        """The terms in sorted_terms order, as "-3/4*X^2*Y + S - 2".

        Each term is its coefficient's text (left out when it is +-1 and a
        variable follows) and the texts of its powers, read from the
        varset's power_texts tables, with the term's sign moved into the
        " + " / " - " between terms.
        """
        if not self.nums:
            return "0"
        den = self.den
        texts = self.varset.power_texts()
        join = "*".join
        out = []
        for exps, n in self.sorted_terms():
            if n < 0:
                out.append(" - ")
                n = -n
            else:
                out.append(" + ")
            factors = join(filter(None, map(getitem, texts, exps)))
            if factors and n == den:
                out.append(factors)
                continue
            coeff = str(n) if den == 1 and n < _CHUNK_BASE else _format_coeff(n, den)
            out.append(f"{coeff}*{factors}" if factors else coeff)
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def substitute_all(polys: Sequence[MultiPoly], images: Mapping[str, E]) -> list[E]:
    """Evaluate each of polys at one set of images of the variables.

    This is the package's one evaluation routine.  The images are either all
    MultiPoly over one varset (which may differ from the polys') or all
    QuotElem of one ring; any other mix raises ValueError before any
    product.  Every variable actually occurring in a polynomial must have an
    image; the other images are never read.  A ring element is evaluated
    through its representative, a polynomial over the ring's varset, and
    only the result is reduced (last paragraph).

    An image with exactly one term, c*x^u (such as lambda*X, or a plain
    variable), acts by exponent arithmetic: a term's exponent e on its
    variable adds e*u to the term's exponents and multiplies its coefficient
    by c^e.  The other images go through one power table, shared by all of
    polys: one ladder per image, extended by ladder_power, so each image is
    raised to each power once.

    A polynomial's terms are grouped by their exponents on the variables
    with table images (the pattern), after the single-term images have acted
    on them.  Each pattern costs one product of powers from the table and
    one product of that factor with its group, and every group is summed in
    place into one term map, where a coefficient that cancels is deleted.

    The whole call runs packed: exponents are Kronecker-packed ints
    throughout, with one field width fixed before the first product (so a
    single-term image acts by adding its packed u e times).  The exponent of
    target variable j in
    any intermediate is at most B_j = sum over used variables k of deg_k *
    (max exponent of j in the image of k), where deg_k is the largest
    exponent of k in any of polys, so the width is the bit length of the
    largest B_j.  The table holds each image's numerators, and their powers.
    Every term of a polynomial p is brought over one denominator, p's times
    b^top for each used image over b, where top is p's largest exponent of
    that image's variable; a term with exponent e there takes b^(top - e),
    and, for a single-term image c*x^u/b, c^e.  The kernel's double loop adds
    each product of a factor with a group straight into one sum of
    numerators over that denominator.  Each result is converted back to
    exponent tuples once, at the end, and loses the gcd of its denominator
    and numerators.  With no images at all, every polynomial must be a
    constant, and is returned as it is.

    At ring elements the packed sum goes, as integer numerators over its
    denominator, straight into the ring's rewrite loop (_rewrite) and is
    converted to a QuotElem once (_to_elem).  Powers and products are not
    reduced on the way, so they can be much larger than their canonical
    forms: a product of several multi-term images, or a power past d in S
    or m in Y, swells before the one rewrite.  Low exponents, as in the
    package's own calls, gain; high powers of multi-term images lose (on
    R(1,1; d=m=3), evaluating S^12*Y^12*Z^3 at the automorphism chain's
    images takes about seven times as long as reducing every product did).
    """
    homes = [_image_home(img) for img in images.values()]
    for here in homes[1:]:
        if here != homes[0]:
            kind = here[0] if here[0] == homes[0][0] else "types"
            raise ValueError(f"substitution images use mixed {kind}")
    kind, home = homes[0] if homes else ("varsets", None)
    ring = home if kind == "rings" else None
    # the varset of the results; with no images, each polynomial's own
    target = ring.varset if ring is not None else home

    # the largest exponent of each variable in each polynomial, and over all
    tops = [tuple(map(max, zip(*p.nums))) for p in polys]
    degrees: dict[str, int] = {}
    for p, top in zip(polys, tops):
        for nm, d in zip(p.varset.names, top):
            if d:
                if nm not in images:
                    raise ValueError(f"no substitution image for variable {nm!r}")
                degrees[nm] = max(d, degrees.get(nm, 0))
    if target is None:
        # no images: every polynomial is a constant, and is its own value
        return list(polys)
    if ring is not None:
        # a ring element is read as its representative
        images = {nm: images[nm].rep for nm in degrees}
    # no exponent of target variable j in any intermediate exceeds bound[j]
    # (all bounds are 0 when every used image is a constant or zero)
    bound = [0] * len(target)
    for nm, d in degrees.items():
        nums = images[nm].nums
        if nums:
            bound = [b + d * u for b, u in zip(bound, map(max, zip(*nums)))]
    packing = _packing(max(bound), len(target))
    # only used images are read: a single-term image (c/b)*x^u as the packed
    # key of u, with c in scale; every other image as the first power of its
    # table ladder
    moves: dict[str, int] = {}
    scale: dict[str, int] = {}
    table: dict[str, dict[int, dict[int, int]]] = {}
    for nm in degrees:
        nums = images[nm].nums
        if len(nums) == 1:
            ((u, scale[nm]),) = nums.items()
            moves[nm] = packing.pack(u)
        else:
            table[nm] = {1: dict(zip(packing.keys(nums), nums.values()))}

    unit = {0: 1}

    def evaluate(p: MultiPoly, top: tuple[int, ...]) -> E:
        names = p.varset.names
        used = [(k, names[k]) for k, d in enumerate(top) if d]
        shifts = [(k, moves[nm]) for k, nm in used if nm in moves]
        powered = [(k, nm) for k, nm in used if nm in table]
        # every term over den = p.den * prod b_k^top_k, for the denominator b_k
        # of each used image: a term with exponent e on variable k takes
        # c_k^e * b_k^(top_k - e), c_k the numerator of a single-term image
        # and 1 for a table image
        den = p.den
        weights = []
        for k, nm in used:
            b = images[nm].den
            den *= b ** top[k]
            c = scale.get(nm, 1)
            if b != 1 or c != 1:
                weights.append((k, c, b, top[k]))
        groups: dict[tuple[int, ...], dict] = {}
        for exps, n in p.nums.items():
            key = sum([exps[k] * u for k, u in shifts])
            for k, c, b, t in weights:
                n *= c ** exps[k] * b ** (t - exps[k])
            group = groups.setdefault(tuple([exps[k] for k, _ in powered]), {})
            s = group.get(key, 0) + n
            if s:
                group[key] = s
            else:
                del group[key]
        total: dict[int, int] = {}
        for pattern, group in groups.items():
            factor = unit
            for (k, nm), e in zip(powered, pattern):
                if e:
                    pk = ladder_power(table[nm], e, _times)
                    factor = pk if factor is unit else _times(factor, pk)
            if factor is unit and not total:
                total = group
            else:
                _accumulate(total, group.items(), list(factor.items()))
        if ring is None:
            return _from_terms(target, _unpacked(total, packing), den)
        # one rewrite of the packed integer sum, and one conversion
        return ring._to_elem(*ring._rewrite(total, den, packing, "s_first"))

    return [evaluate(p, top) for p, top in zip(polys, tops)]


def relabel(p: MultiPoly, target: VarSet, names: Mapping[str, str] | None = None) -> MultiPoly:
    """p with each variable nm moved to the variable names.get(nm, nm) of target.

    This is the package's one relabel routine, for MultiPoly.rename and for
    the step solve's move into the recovery varset.  Each exponent moves to
    its new variable's position in target; the numerators, their order and
    the denominator stay as they are, so the result is substitute_all at the
    plain-variable images nm -> that variable, with no packing and no
    product.  A variable that p does not use need not have a place in
    target; a used one without a place raises ValueError ("unknown
    variable"), and so do two variables sent to one.
    """
    names = names or {}
    # picks[j]: the position in p's varset of target variable j; len(p.varset),
    # the position of a zero appended to every exponent tuple, for the rest
    source = len(p.varset)
    picks = [source] * len(target)
    for k, nm in enumerate(p.varset.names):
        new = names.get(nm, nm)
        if new in target:
            j = target.index(new)
            if picks[j] != source:
                raise ValueError(f"relabel sends {p.varset.names[picks[j]]!r} and {nm!r} to {new!r}")
            picks[j] = k
        elif any(exps[k] for exps in p.nums):
            target.index(new)  # raises: a used variable needs a place
    nums = {}
    for exps, n in p.nums.items():
        padded = (*exps, 0)
        nums[tuple([padded[k] for k in picks])] = n
    return _from_terms(target, nums, p.den)


def _times(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two packed integer term maps of one packing."""
    return _accumulate({}, a.items(), list(b.items()))


def _add_terms(terms: dict[T, int], pairs: Iterable[tuple[T, int]]) -> None:
    """Add the (key, numerator) pairs into a term map in place, deleting a key that cancels."""
    get = terms.get
    for exps, c in pairs:
        old = get(exps)
        s = c if old is None else old + c
        if s:
            terms[exps] = s
        else:
            del terms[exps]


def _image_home(img: object) -> tuple[str, object]:
    """What all substitution images must share: a varset, or a ring.

    A ring element (QuotElem) is known by its ring attribute: rings.py is
    built on this module, so this module does not import it.
    """
    if isinstance(img, MultiPoly):
        return "varsets", img.varset
    ring = getattr(img, "ring", None)
    if ring is None:
        raise ValueError(f"substitution image {img!r} is neither a polynomial nor a ring element")
    return "rings", ring


# str() of an int refuses more than sys.get_int_max_str_digits() digits (4,300
# by default); below 10**_DIGIT_CHUNK it is safe, and larger values are cut
# into _DIGIT_CHUNK-digit pieces first
_DIGIT_CHUNK = 1000
_CHUNK_BASE = 10**_DIGIT_CHUNK


def _decimal(n: int) -> str:
    """n in decimal, whatever its size."""
    if -_CHUNK_BASE < n < _CHUNK_BASE:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    pieces = []
    while n >= _CHUNK_BASE:
        n, low = divmod(n, _CHUNK_BASE)
        pieces.append(f"{low:0{_DIGIT_CHUNK}d}")
    pieces.append(str(n))
    return sign + "".join(reversed(pieces))


def _format_coeff(num: int, den: int = 1) -> str:
    """str(Fraction(num, den)) for den > 0, for a numerator and denominator of any size.

    One int gcd brings num/den to lowest terms.
    """
    if den != 1:
        g = gcd(num, den)
        num, den = num // g, den // g
    if den == 1:
        return _decimal(num)
    return f"{_decimal(num)}/{_decimal(den)}"


# read_rational refuses a numerator or denominator of more digits: far more
# than any exact result of the package's demos or benchmark, and few enough
# that hostile text is refused before an integer of its size is built
MAX_RATIONAL_DIGITS = 100_000
_RATIONAL_TEXT = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?")


def _read_decimal(digits: str) -> int:
    """The value of a digit string of any length: the inverse of _decimal."""
    head = len(digits) % _DIGIT_CHUNK or _DIGIT_CHUNK
    n = int(digits[:head])
    for at in range(head, len(digits), _DIGIT_CHUNK):
        n = n * _CHUNK_BASE + int(digits[at : at + _DIGIT_CHUNK])
    return n


def _excerpt(value: object) -> str:
    """repr(value), cut to its first 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def read_rational(value: object, what: str) -> Fraction:
    """The exact rational of a JSON integer, or of text "p" or "p/q" (q nonzero).

    The package's one reader of rational values from JSON: what _format_coeff
    prints reads back, at any size up to MAX_RATIONAL_DIGITS digits in the
    numerator and in the denominator.  Floats, booleans, exponents, decimal
    points, spaces and underscores raise ValueError, whose message names what
    is read and quotes at most 40 characters of value.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    match = _RATIONAL_TEXT.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f'{what} is {_excerpt(value)}; write a rational as an integer, "p" or "p/q"')
    sign, p, q = match.groups()
    if max(len(p), len(q or "")) > MAX_RATIONAL_DIGITS:
        raise ValueError(f"{what} is {_excerpt(value)}, with more than {MAX_RATIONAL_DIGITS:,} digits")
    q = _read_decimal(q) if q else 1
    if not q:
        raise ValueError(f"{what} is {_excerpt(value)}, with a zero denominator")
    return Fraction(-_read_decimal(p) if sign == "-" else _read_decimal(p), q)


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


# the largest exponent that parse_poly and element JSON accept; the cost of a
# normal form grows quadratically with it (S^10000 on the toy ring takes seconds)
MAX_EXPONENT = 10_000


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' int)?
    atom   := int ('/' int)? | name | '(' expr ')'

    '/' only forms rational literals p/q; it is not general division.
    Parentheses and unary minus nest at most MAX_NESTING deep together, so
    that hostile input fails with ParseError, well before the interpreter's
    recursion limit.  An exponent is at most MAX_EXPONENT, so that a short
    token such as S^100000 fails with ParseError instead of building a power
    of unbounded size.  A numerator or denominator has at most
    MAX_LITERAL_DIGITS digits after its leading zeros, well under the
    interpreter's own limit on int() of a digit string (4,300 digits by
    default), so that a longer one fails with ParseError at its position.
    """

    MAX_NESTING = 100
    MAX_EXPONENT = MAX_EXPONENT
    MAX_LITERAL_DIGITS = 1_000

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
            # the length test keeps int() off digit strings of any size
            if len(etok[1].lstrip("0")) > len(str(self.MAX_EXPONENT)) or int(etok[1]) > self.MAX_EXPONENT:
                raise ParseError(f"exponent larger than {self.MAX_EXPONENT}", etok[2])
            p = p ** int(etok[1])
        return p

    def atom(self) -> MultiPoly:
        tok = self.take()
        kind, text, at = tok
        if kind == "int":
            value = self.literal(tok)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den = self.take()
                if den[0] != "int":
                    raise ParseError(f"expected integer denominator, found {den[1]!r}", den[2])
                q = self.literal(den)
                if q == 0:
                    raise ParseError("zero denominator", den[2])
                value = Fraction(value, q)
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

    def literal(self, tok: tuple[str, str, int]) -> int:
        """The value of an integer token, refused beyond MAX_LITERAL_DIGITS digits."""
        if len(tok[1].lstrip("0")) > self.MAX_LITERAL_DIGITS:
            raise ParseError(f"integer literal longer than {self.MAX_LITERAL_DIGITS} digits", tok[2])
        return int(tok[1])


def parse_poly(text: str, varset: VarSet) -> MultiPoly:
    """Parse an expression with +, -, *, ^, parentheses and p/q literals.

    Multiplication must be explicit ("2*X", not "2X").  Unknown variable
    names, syntax errors, parentheses or unary minus nested more than
    100 levels deep, exponents above 10,000 and integer literals of more
    than 1,000 digits raise ParseError with a position.
    """
    return _Parser(_tokenize(text), varset, len(text)).parse()
