"""Exact sparse polynomial arithmetic over the rationals.

A polynomial in n variables is a map from exponent tuples (one nonnegative
integer per variable) to nonzero Fraction coefficients.  The representation
is canonical: zero coefficients are never stored, every key has length
nvars, so two polynomials are equal exactly when nvars and the term maps
agree.  All arithmetic is exact; nothing in this module touches floats
except the documented evaluation helpers.

Univariate polynomials in a formal parameter t (used for curves through
the origin) get a lighter type, UniPoly, indexed by power of t.

Text grammar (parse_polynomial / parse_unipoly): variables are x1..xn,
with x, y, z, w accepted as aliases for x1..x4; literals are integers or
a/b rationals; operators are + - * ^ with parentheses; whitespace is
insignificant.  There is no implicit multiplication.  Parsed text may name
at most MAX_VARIABLES variables, and no product or power in it may pass
total degree MAX_DEGREE (nor an exponent pass it), nor have bounds on its
term count or coefficient bits above MAX_TERMS or MAX_COEFF_BITS; larger
input is refused before it is built.

Term order everywhere (printing, documented float summation) is graded
lexicographic, highest first.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

#: Order of a zero polynomial (total order semantics: INF + k == INF,
#: min(INF, q) == q, m * INF == INF for m > 0).
INF = math.inf

#: Input caps of the text grammar.  Every minor of n variables is built
#: symbolically, and exact arc orders recurse once per power of a variable.
MAX_VARIABLES = 8
MAX_DEGREE = 256
#: Work caps of the text grammar: an exact product or power costs about
#: its term count times its coefficient bits (see _coeff_bits), so upper
#: bounds on both are checked before it is formed.
MAX_TERMS = 1024
MAX_COEFF_BITS = 4096

_ALIAS_NAMES = ("x", "y", "z", "w")
_ALIASES = {name: i for i, name in enumerate(_ALIAS_NAMES)}


def variable_names(nvars: int) -> tuple[str, ...]:
    """Printed variable names: x, y, z, w for up to four variables, else x1..xn."""
    if nvars <= 4:
        return _ALIAS_NAMES[:nvars]
    return tuple(f"x{i + 1}" for i in range(nvars))


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key for graded lexicographic order."""
    return (sum(mono), mono)


def _is_rows(values) -> bool:
    """Whether float input is an (N, n) array of points rather than one point."""
    return getattr(values, "ndim", 1) == 2


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational coefficient, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "_terms", "_hash", "_float")

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1:
            raise ValueError("a polynomial needs at least one variable")
        object.__setattr__(self, "nvars", nvars)
        canonical: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"exponent tuple {mono} does not have {nvars} entries")
            if any((not isinstance(e, int)) or e < 0 for e in mono):
                raise ValueError(f"exponents must be nonnegative integers, got {mono}")
            c = _as_fraction(coeff)
            if c:
                acc = canonical.get(mono)
                if acc is None:
                    canonical[mono] = c
                else:
                    acc = acc + c
                    if acc:
                        canonical[mono] = acc
                    else:
                        del canonical[mono]
        object.__setattr__(self, "_terms", canonical)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_float", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # the default would restore slots through __setattr__
        return (Polynomial, (self.nvars, dict(self._terms)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: object) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The monomial x_{index} (0-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """Read-only view of the canonical term map."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.nvars, Fraction(0))

    @property
    def vanishes_at_origin(self) -> bool:
        return not self.constant_term

    @property
    def total_degree(self) -> int:
        """Largest total degree of a term; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(sum(m) for m in self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} versus {other.nvars}"
            )

    def __add__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        acc = dict(self._terms)
        for mono, c in other._terms.items():
            s = acc.get(mono, Fraction(0)) + c
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
        return _raw(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw(self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Polynomial.zero(self.nvars)
            return _raw(self.nvars, {m: k * c for m, k in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = acc.get(mono, Fraction(0)) + c1 * c2
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        return _raw(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers require a nonnegative integer exponent")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to x_{index} (0-based)."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range for {self.nvars} variables")
        acc: dict[Monomial, Fraction] = {}
        for mono, c in self._terms.items():
            e = mono[index]
            if e == 0:
                continue
            lowered = tuple(v - 1 if i == index else v for i, v in enumerate(mono))
            acc[lowered] = acc.get(lowered, Fraction(0)) + c * e
        return _raw(self.nvars, {m: c for m, c in acc.items() if c})

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, values: Sequence[object]) -> Fraction:
        """Evaluate at a rational point, exactly."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(values)}")
        xs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
        total = Fraction(0)
        for mono, c in self._terms.items():
            term = c
            for x, e in zip(xs, mono):
                if e:
                    term *= x**e
            total += term
        return total

    def eval_float(self, values):
        """Evaluate at one float point, or at every row of an (N, nvars) array.

        Terms are summed in descending graded lexicographic order, the
        documented (and deterministic) float evaluation order.  A point
        (any sequence of nvars floats, a 1-D array included) is evaluated
        with its own scalar arithmetic and gives a float; an array gives
        the array of its row values, computed with numpy column by column.
        """
        rows = _is_rows(values)
        width = values.shape[1] if rows else len(values)
        if width != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {width}")
        compiled = self._float
        if compiled is None:
            try:
                compiled = tuple(
                    (float(c), tuple((i, e) for i, e in enumerate(mono) if e))
                    for mono, c in self.sorted_terms()
                )
            except OverflowError:
                raise ValueError("a coefficient lies outside the float range; only exact routes take it") from None
            object.__setattr__(self, "_float", compiled)
        if rows:
            total, values = np.zeros(len(values)), np.asarray(values, dtype=float).T
        else:
            total = 0.0
        for coeff, factors in compiled:
            term = coeff
            for i, e in factors:
                term *= values[i] if e == 1 else values[i] ** e
            total += term
        return total

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r}, nvars={self.nvars})"

    def to_string(self) -> str:
        """Render in the text grammar; the output re-parses to an equal value."""
        if not self._terms:
            return "0"
        names = variable_names(self.nvars)
        chunks: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)


def _raw(nvars: int, terms: dict[Monomial, Fraction]) -> Polynomial:
    """Internal constructor; `terms` must already be canonical."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "_hash", None)
    object.__setattr__(p, "_float", None)
    return p


class UniPoly:
    """Univariate polynomial in t with Fraction coefficients.

    Stored densely as a coefficient tuple with no trailing zero, so the
    zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[object] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return (UniPoly, (self.coeffs,))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> float:
        """Index of the first nonzero coefficient; INF when zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return INF

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({self.to_string()!r})"

    def to_string(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        chunks: list[str] = []
        for e, coeff in enumerate(self.coeffs):
            if not coeff:
                continue
            if e == 0:
                body = str(abs(coeff))
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if abs(coeff) == 1 else f"{abs(coeff)}*{power}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)


# ---------------------------------------------------------------------------
# Arc composition


def compose_arc(p: Polynomial, components: Sequence[UniPoly]) -> UniPoly:
    """Substitute t-polynomials for the variables of p, exactly.

    `components[i]` replaces variable i.  The components are cleared to
    integers once per call, and their powers are kept for the call, so the
    inner convolutions stay in plain integer arithmetic.  Callers that need
    only the order use compose_order; this full composition is its
    independent oracle and shares no cache with it.
    """
    if len(components) != p.nvars:
        raise ValueError(
            f"arc has {len(components)} components but polynomial has {p.nvars} variables"
        )
    if p.is_zero:
        return UniPoly.zero()
    cache: dict = {}

    def base(i: int) -> tuple[int, list[int]]:
        key = ("base", i)
        got = cache.get(key)
        if got is None:
            comp = components[i]
            den = math.lcm(*(c.denominator for c in comp.coeffs)) if comp.coeffs else 1
            ints = [int(c * den) for c in comp.coeffs]
            got = (den, ints)
            cache[key] = got
        return got

    def power(i: int, e: int) -> list[int]:
        if e == 0:
            return [1]
        key = ("pow", i, e)
        got = cache.get(key)
        if got is None:
            _, ints = base(i)
            prev = power(i, e - 1)
            got = _int_mul(prev, ints)
            cache[key] = got
        return got

    max_exp = [0] * p.nvars
    for mono in p.terms:
        for i, e in enumerate(mono):
            if e > max_exp[i]:
                max_exp[i] = e
    coeff_den = math.lcm(*(c.denominator for c in p.terms.values()))
    scale = coeff_den
    dens = [base(i)[0] for i in range(p.nvars)]
    for i, b in enumerate(max_exp):
        scale *= dens[i] ** b

    acc: list[int] = []
    for mono, c in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0])):
        prod = [1]
        dead = False
        for i, e in enumerate(mono):
            if e:
                q = power(i, e)
                if not q:
                    dead = True
                    break
                prod = _int_mul(prod, q)
        if dead:
            continue
        scalar = c.numerator * (coeff_den // c.denominator)
        for i, e in enumerate(mono):
            scalar *= dens[i] ** (max_exp[i] - e)
        if len(prod) > len(acc):
            acc.extend([0] * (len(prod) - len(acc)))
        for k, v in enumerate(prod):
            if v:
                acc[k] += scalar * v
    return UniPoly([Fraction(a, scale) for a in acc])


def compose_order(
    p: Polynomial,
    components: Sequence[UniPoly],
    cache: dict | None = None,
) -> float:
    """compose_arc(p, components).order, computed from the lowest valuation up.

    Each nonzero component is t^a_i * u_i(t) with u_i(0) != 0, cleared to
    integers once per cache, which callers share across one arc.  A monomial
    starts at t^(sum e_i a_i), and a lone term at the lowest such v0 cannot
    cancel.  Otherwise only the coefficients from v0 upward are formed, from
    integer power series of the u_i truncated to a depth that doubles while
    they cancel; once the depth passes the degree, the order is INF.
    """
    if len(components) != p.nvars:
        raise ValueError(
            f"arc has {len(components)} components but polynomial has {p.nvars} variables"
        )
    if cache is None:
        cache = {}
    if "units" not in cache:
        cache["units"] = _units(components)
    vals, dens, ints = cache["units"]
    terms = [(sum(map(operator.mul, mono, vals)), mono, c) for mono, c in p._terms.items()]
    terms = [t for t in terms if t[0] < _DEAD]
    if not terms:
        return INF
    v0 = min(v for v, _, _ in terms)
    if sum(1 for v, _, _ in terms if v == v0) == 1:
        return v0

    def power(i: int, e: int, depth: int) -> list[int]:
        """u_i^e truncated to `depth` coefficients (or fewer when shorter)."""
        if e == 0:
            return [1]
        key = ("upow", i, e)
        got = cache.get(key)
        if got is None or len(got) < min(depth, e * (len(ints[i]) - 1) + 1):
            got = cache[key] = _int_mul(power(i, e - 1, depth), ints[i], depth)
        return got

    degree = max(v + sum(e * (len(ints[i]) - 1) for i, e in enumerate(mono)) for v, mono, _ in terms)
    depth = 2
    while True:
        acc = [0] * depth
        for v, mono, c in terms:
            room = depth - (v - v0)
            if room <= 0:
                continue
            prod = [c / math.prod(dens[i] ** e for i, e in enumerate(mono))]
            for i, e in enumerate(mono):
                if e:
                    prod = _int_mul(prod, power(i, e, room), room)
            for k, val in enumerate(prod, v - v0):
                acc[k] += val
        for k, val in enumerate(acc):
            if val:
                return v0 + k
        if v0 + depth > degree:
            return INF
        depth *= 2


_DEAD = 1 << 62  # the valuation of a zero component: past every real one


def _units(components: Sequence[UniPoly]) -> tuple[list[int], list[int], list[list[int]]]:
    """Per component: its order a_i, and the unit part t^-a_i * component as
    a denominator and integer coefficients."""
    vals, dens, ints = [], [], []
    for comp in components:
        a = _DEAD if comp.is_zero else comp.order
        vals.append(a)
        dens.append(math.lcm(*(c.denominator for c in comp.coeffs)))
        ints.append([c.numerator * (dens[-1] // c.denominator) for c in comp.coeffs[a:]])
    return vals, dens, ints


def _int_mul(a: list[int], b: list[int], limit: int | None = None) -> list[int]:
    """Product of integer coefficient lists, keeping at most `limit` coefficients."""
    if not a or not b:
        return []
    size = len(a) + len(b) - 1
    if limit is not None and limit < size:
        size = limit
    out = [0] * size
    for i, ai in enumerate(a[:size]):
        if ai:
            for j, bj in enumerate(b[: size - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN_KINDS = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "/": "SLASH",
    "(": "LPAREN",
    ")": "RPAREN",
}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens: list[tuple[str, str, int, int]] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        kind = _TOKEN_KINDS.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, ch, line, col))
        col += 1
        i += 1
    tokens.append(("END", "", line, col))
    return tokens


def _variable_index(name: str, line: int, col: int) -> int:
    if name in _ALIASES:
        return _ALIASES[name]
    if name.startswith("x") and name[1:].isdigit():
        idx = int(name[1:])
        if idx > MAX_VARIABLES:
            raise ParseError(f"variable {name!r} is above the cap of {MAX_VARIABLES} variables", line, col)
        if idx >= 1:
            return idx - 1
    raise ParseError(f"unknown variable {name!r}", line, col)


def max_variable_index(text: str) -> int | None:
    """Largest 0-based variable index mentioned in `text`, or None."""
    best: int | None = None
    for kind, value, line, col in _tokenize(text):
        if kind == "NAME" and value != "t":
            idx = _variable_index(value, line, col)
            if best is None or idx > best:
                best = idx
    return best


def _coeff_bits(p: Polynomial) -> int:
    """Bits of the common denominator D of p's coefficients plus bits of
    their largest numerator over D.  A coefficient of a product is a sum of
    at most k products, k the shorter factor's term count, so the product
    needs at most the sum for its two factors plus the bits of k - 1; a
    power p^e, with k the terms of p, at most e times (bits of p + bits of
    k - 1)."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    top = max((abs(c.numerator) * (den // c.denominator) for c in p.terms.values()), default=0)
    return top.bit_length() + den.bit_length()


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int, int]], nvars: int,
                 var_names: Mapping[str, int] | None):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.var_names = var_names

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        return self.advance()

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2], tok[3])
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op[0] == "PLUS" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek()[0] == "STAR":
            tok = self.advance()
            rhs = self.factor()
            self.check_degree(value.total_degree + rhs.total_degree, tok)
            shorter = min(len(value.terms), len(rhs.terms))
            self.check_work(value.total_degree + rhs.total_degree, len(value.terms) * len(rhs.terms),
                            _coeff_bits(value) + _coeff_bits(rhs) + (shorter - 1).bit_length(), tok)
            value = value * rhs
        return value

    def factor(self) -> Polynomial:
        if self.peek()[0] == "MINUS":
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] == "CARET":
            self.advance()
            tok = self.expect("NUMBER")
            exponent = int(tok[1])
            self.check_degree(max(base.total_degree, 1) * exponent, tok)  # caps the exponent too
            k = len(base.terms)  # the terms of base^e are products of e of its k terms
            self.check_work(base.total_degree * exponent, math.comb(max(k + exponent - 1, 0), exponent),
                            exponent * (_coeff_bits(base) + (k - 1).bit_length()), tok)
            return base**exponent
        return base

    def check_degree(self, degree: int, tok: tuple[str, str, int, int]) -> None:
        if degree > MAX_DEGREE:
            raise ParseError(f"degree {degree} is above the cap of {MAX_DEGREE}", tok[2], tok[3])

    def check_work(self, degree: int, terms: int, bits: int, tok: tuple[str, str, int, int]) -> None:
        """Refuse a product or power whose bounds on its term count (at most
        the monomials of its degree or less) or coefficient bits pass a cap."""
        terms = min(terms, math.comb(self.nvars + degree, degree))
        if terms > MAX_TERMS:
            raise ParseError(f"up to {terms} terms is above the cap of {MAX_TERMS}", tok[2], tok[3])
        if bits > MAX_COEFF_BITS:
            raise ParseError(f"up to {bits} coefficient bits is above the cap of {MAX_COEFF_BITS}",
                             tok[2], tok[3])

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok[0] == "NUMBER":
            self.advance()
            value = Fraction(int(tok[1]))
            if self.peek()[0] == "SLASH":
                self.advance()
                den = self.expect("NUMBER")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2], den[3])
                value /= int(den[1])
            return Polynomial.constant(self.nvars, value)
        if tok[0] == "NAME":
            self.advance()
            if self.var_names is not None:
                idx = self.var_names.get(tok[1])
                if idx is None:
                    raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
            else:
                idx = _variable_index(tok[1], tok[2], tok[3])
            if idx >= self.nvars:
                raise ParseError(
                    f"variable {tok[1]!r} exceeds the declared count of {self.nvars}",
                    tok[2], tok[3],
                )
            return Polynomial.variable(self.nvars, idx)
        if tok[0] == "LPAREN":
            self.advance()
            value = self.expr()
            self.expect("RPAREN")
            return value
        raise ParseError(f"expected a value, found {tok[1] or 'end of input'!r}", tok[2], tok[3])


def parse_polynomial(text: str, nvars: int | None = None) -> Polynomial:
    """Parse the text grammar into a Polynomial.

    When nvars is omitted it is inferred as the largest variable index
    mentioned (at least 1).
    """
    tokens = _tokenize(text)
    if nvars is None:
        top = max_variable_index(text)
        nvars = 1 if top is None else top + 1
    if nvars < 1:
        raise ValueError("nvars must be at least 1")
    return _Parser(tokens, nvars, None).parse()


def parse_unipoly(text: str) -> UniPoly:
    """Parse a univariate polynomial in t."""
    tokens = _tokenize(text)
    p = _Parser(tokens, 1, {"t": 0}).parse()
    out = [Fraction(0)] * (p.total_degree + 1)
    for mono, c in p.terms.items():
        out[mono[0]] = c
    return UniPoly(out)
