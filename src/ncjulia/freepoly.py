"""Free (non-commuting) polynomials and points of evaluation.

A free polynomial in d variables is a complex linear combination of words in
the non-commuting letters x0..x{d-1}; a point of evaluation is a d-tuple of
n x n complex matrices.  Multiplication of words is order preserving.

Text grammar accepted by :func:`parse_poly`::

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ['^' INT]          # INT >= 0
    primary := NUMBER ['i'] | 'i' | VAR | '(' expr ')'
    VAR     := 'x' INT                    # index < d

Multiplication is always explicit ('*'); juxtaposition is a syntax error.
'^' applies to variables and parenthesized groups only.  Exponents and degrees
above ``MAX_DEGREE``, and sums, products or powers that could form more than
``MAX_TERMS`` terms, are rejected before they are expanded, and so are
parentheses nested deeper than ``MAX_DEPTH``.  A literal, sum, product or
power whose coefficient overflows to infinity or NaN is rejected too.  A JSON
polynomial object may hold at most ``MAX_TERMS`` terms and words of at most
``MAX_DEGREE`` letters, checked before any term or word is built.
"""

from __future__ import annotations

import cmath
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    ParseError,
    PolyParseError,
    PreconditionError,
    SingularMatrixError,
)
from .numerics import as_complex_matrix, json_complex, json_int, operator_norm
from .numerics import matrix_from_json, matrix_to_json

MAX_DEGREE = 64  # largest exponent and total degree the parser expands
MAX_TERMS = 4096  # largest term count one parsed sum, product or power may form
MAX_DEPTH = 64  # deepest parenthesis nesting the recursive-descent parser enters


@dataclass(frozen=True)
class FreePolynomial:
    """Canonical free polynomial: distinct words, finite non-zero coefficients.

    ``terms`` is a tuple of (word, coefficient) pairs kept sorted by total
    degree, then lexicographically on the letter sequence.  The constructor
    canonicalizes whatever it is given, and refuses a coefficient that is
    not finite, summed duplicates included, with ``PreconditionError``.
    """

    d: int
    terms: tuple

    def __post_init__(self):
        if self.d < 0:
            raise DimensionError("variable count d must be non-negative")
        combined: dict = {}
        for word, coeff in self.terms:
            w = tuple(int(i) for i in word)
            for i in w:
                if not 0 <= i < self.d:
                    raise DimensionError(
                        f"variable index {i} out of range for d={self.d}"
                    )
            combined[w] = combined.get(w, 0j) + complex(coeff)
        if not all(map(cmath.isfinite, combined.values())):
            raise PreconditionError("polynomial coefficient is not finite")
        canon = tuple(
            sorted(
                ((w, c) for w, c in combined.items() if c != 0),
                key=lambda item: (len(item[0]), item[0]),
            )
        )
        object.__setattr__(self, "terms", canon)

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, d: int) -> "FreePolynomial":
        return cls(d, ())

    @classmethod
    def constant(cls, d: int, value) -> "FreePolynomial":
        return cls(d, (((), complex(value)),))

    @classmethod
    def variable(cls, d: int, index: int) -> "FreePolynomial":
        if not 0 <= index < d:
            raise DimensionError(f"variable index {index} out of range for d={d}")
        return cls(d, (((index,), 1.0 + 0j),))

    # -- ring operations -----------------------------------------------
    def _check_same_d(self, other: "FreePolynomial"):
        if self.d != other.d:
            raise DimensionError(f"variable counts differ: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, FreePolynomial):
            self._check_same_d(other)
            return FreePolynomial(self.d, self.terms + other.terms)
        return self + FreePolynomial.constant(self.d, other)

    __radd__ = __add__

    def __neg__(self):
        return FreePolynomial(self.d, tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, FreePolynomial):
            other = FreePolynomial.constant(self.d, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FreePolynomial):
            self._check_same_d(other)
            prods = [
                (wa + wb, ca * cb)
                for wa, ca in self.terms
                for wb, cb in other.terms
            ]
            return FreePolynomial(self.d, tuple(prods))
        return FreePolynomial(self.d, tuple((w, complex(other) * c) for w, c in self.terms))

    def __rmul__(self, other):
        # scalars commute with coefficients, so left and right agree
        return self * other

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise PreconditionError("exponent must be a non-negative integer")
        out = FreePolynomial.constant(self.d, 1.0)
        for _ in range(k):
            out = out * self
        return out

    # -- queries ---------------------------------------------------------
    def degree(self) -> int:
        return max((len(w) for w, _ in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous_degree_one(self) -> bool:
        """Every monomial is a single letter (zero polynomial qualifies vacuously)."""
        return all(len(w) == 1 for w, _ in self.terms)

    def __str__(self):
        return format_poly(self)


@dataclass(frozen=True, eq=False)
class MatrixTuple:
    """A point x = (x^1, ..., x^d): d complex matrices, all n x n."""

    components: tuple

    def __post_init__(self):
        comps = tuple(as_complex_matrix(c, f"component {k}") for k, c in enumerate(self.components))
        if not comps:
            raise DimensionError("a matrix tuple needs at least one component")
        n = comps[0].shape[0]
        if n == 0:
            raise DimensionError("matrix tuple components must be at least 1 x 1")
        for k, c in enumerate(comps):
            if c.shape != (n, n):
                raise DimensionError(
                    f"component {k} has shape {c.shape}, expected ({n}, {n})"
                )
        frozen = []
        for c in comps:
            c = c.copy()
            c.flags.writeable = False
            frozen.append(c)
        object.__setattr__(self, "components", tuple(frozen))

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return self.components[0].shape[0]

    @classmethod
    def from_scalars(cls, scalars) -> "MatrixTuple":
        return cls(tuple(np.array([[complex(z)]]) for z in scalars))

    def __add__(self, other: "MatrixTuple") -> "MatrixTuple":
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        if self.d != other.d or self.n != other.n:
            raise DimensionError("tuples must share d and n to be added")
        return MatrixTuple(tuple(a + b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar) -> "MatrixTuple":
        return MatrixTuple(tuple(complex(scalar) * c for c in self.components))

    __rmul__ = __mul__

    def __neg__(self) -> "MatrixTuple":
        return self * (-1.0)

    def max_component_norm(self) -> float:
        """max_r ||x^r||, the tuple norm of the unit-ball constraints, from one batched SVD."""
        return float(operator_norm(np.stack(self.components)).max())


def direct_sum(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    """Componentwise block-diagonal tuple of size x.n + y.n."""
    if x.d != y.d:
        raise DimensionError(f"variable counts differ: {x.d} vs {y.d}")
    out = []
    for a, b in zip(x.components, y.components):
        block = np.zeros((x.n + y.n, x.n + y.n), dtype=np.complex128)
        block[: x.n, : x.n] = a
        block[x.n :, x.n :] = b
        out.append(block)
    return MatrixTuple(tuple(out))


def similarity(x: MatrixTuple, s) -> MatrixTuple:
    """The conjugated tuple (s^-1 x^1 s, ..., s^-1 x^d s)."""
    m = as_complex_matrix(s, "s")
    if m.shape != (x.n, x.n):
        raise DimensionError(f"s has shape {m.shape}, expected ({x.n}, {x.n})")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e12:
        raise SingularMatrixError(
            "similarity matrix is numerically singular",
            smallest_singular_value=float(sv[-1]),
        )
    return MatrixTuple(tuple(np.linalg.solve(m, c @ m) for c in x.components))


def lift(t: MatrixTuple, h: MatrixTuple) -> np.ndarray:
    """Components of the tuple [[t, h], [0, t]], as one (d, 2n, 2n) array.

    A free polynomial p there is [[p(t), p'(t)[h]], [0, p(t)]]: its value and derivative.
    """
    if t.d != h.d:
        raise DimensionError(f"base point has d={t.d} but direction has d={h.d}")
    if t.n != h.n:
        raise DimensionError(f"base point has n={t.n} but direction has n={h.n}")
    n = t.n
    out = np.zeros((t.d, 2 * n, 2 * n), dtype=np.complex128)
    out[:, :n, :n] = out[:, n:, n:] = t.components
    out[:, :n, n:] = h.components
    return out


def eval_poly(p: FreePolynomial, x: MatrixTuple) -> np.ndarray:
    """Evaluate p at the tuple x; the identity word contributes coeff * I_n."""
    if p.d != x.d:
        raise DimensionError(f"polynomial has d={p.d} but point has d={x.d}")
    return eval_words(p, x.components)


def eval_words(p: FreePolynomial, components) -> np.ndarray:
    """Evaluate p at components of shape (..., n, n); leading axes index stacked points.

    A word's product starts at its first letter; only the empty word adds coeff * I.  Bit for bit
    that is a product started at I: (1 + 0i) z is z up to a zero's sign, and the sum ends at +0.
    """
    acc = np.zeros(components[0].shape, dtype=np.complex128)
    for word, coeff in p.terms:
        m = components[word[0]] if word else np.eye(acc.shape[-1], dtype=np.complex128)
        for letter in word[1:]:
            m = m @ components[letter]
        acc += coeff * m
    return acc


def directional_derivative_poly(p: FreePolynomial, t: MatrixTuple, h: MatrixTuple) -> np.ndarray:
    """Exact derivative of p at t in direction h: the top-right block of p at lift(t, h)."""
    if p.d != t.d:
        raise DimensionError("polynomial and tuples must share d")
    return eval_words(p, lift(t, h))[: t.n, t.n :]


# --- text grammar ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<var>x(?P<varidx>\d+))
  | (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?(?P<imag>i)?)
  | (?P<iunit>i)
  | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            if m.group("var") is not None:
                tokens.append(("var", int(m.group("varidx")), pos))
            elif m.group("num") is not None:
                mag = float(m.group("num").rstrip("i"))
                value = complex(0.0, mag) if m.group("imag") else complex(mag, 0.0)
                tokens.append(("num", value, pos))
            elif m.group("iunit") is not None:
                tokens.append(("num", 1j, pos))
            else:
                tokens.append((m.group("op"), None, pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, d):
        self.tokens = tokens
        self.d = d
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected trailing input {tok[0]!r}", tok[2])
        return poly

    def expr(self):
        sign = 1.0
        if self.peek()[0] in ("+", "-"):
            sign = -1.0 if self.advance()[0] == "-" else 1.0
        poly = sign * self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            rhs = self.term()
            _check_size(poly.degree(), len(poly.terms) + len(rhs.terms), pos)
            poly = _finite(lambda: poly + rhs if op == "+" else poly - rhs, pos)
        return poly

    def term(self):
        poly = self.factor()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            rhs = self.factor()
            _check_size(poly.degree() + rhs.degree(), len(poly.terms) * len(rhs.terms), pos)
            poly = _finite(lambda: poly * rhs, pos)
        return poly

    def factor(self):
        poly, exponentiable = self.primary()
        if self.peek()[0] == "^":
            caret = self.advance()
            if not exponentiable:
                raise PolyParseError(
                    "exponent applies to variables and parenthesized groups only", caret[2]
                )
            tok = self.peek()
            if tok[0] == "-":
                raise PolyParseError("negative exponent", tok[2])
            tok = self.expect("num")
            value = tok[1]
            if value.real > MAX_DEGREE:
                raise PolyParseError(f"exponent exceeds the maximum {MAX_DEGREE}", tok[2])
            if value.imag != 0 or value.real != int(value.real):
                raise PolyParseError("exponent must be a non-negative integer", tok[2])
            k = int(value.real)
            _check_size(poly.degree() * k, _power_term_bound(poly, k), tok[2])
            poly = _finite(lambda: poly**k, tok[2])
        return poly

    def primary(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            return _finite(lambda: FreePolynomial.constant(self.d, value), pos), False
        if kind == "var":
            if value >= self.d:
                raise PolyParseError(
                    f"variable index out of range: x{value} with d={self.d}", pos
                )
            return FreePolynomial.variable(self.d, value), True
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise PolyParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            poly = self.expr()
            self.expect(")")
            self.depth -= 1
            return poly, True
        raise PolyParseError(f"expected a number, variable or '(', found {kind!r}", pos)


def _check_size(degree: int, terms: int, pos: int):
    if degree > MAX_DEGREE:
        raise PolyParseError(f"degree {degree} exceeds the maximum {MAX_DEGREE}", pos)
    if terms > MAX_TERMS:
        raise PolyParseError(f"expansion may form {terms} terms, more than {MAX_TERMS}", pos)


def _finite(build, pos: int) -> FreePolynomial:
    """``build()``, a polynomial the parser forms; one whose coefficient overflows exits 2."""
    try:
        return build()
    except PreconditionError:  # FreePolynomial refuses a non-finite coefficient
        raise PolyParseError("coefficient overflows to a non-finite value", pos) from None


def _power_term_bound(p: FreePolynomial, k: int) -> int:
    """Upper bound on the terms of p^k: its k-fold term products, or the words it can contain."""
    letters = len({i for word, _ in p.terms for i in word})
    degree = p.degree() * k
    words = degree + 1 if letters <= 1 else (letters ** (degree + 1) - 1) // (letters - 1)
    return min(len(p.terms) ** k, words)


def parse_poly(text: str, d: int) -> FreePolynomial:
    """Parse grammar text into a canonical FreePolynomial with d variables."""
    if d < 0:
        raise DimensionError("variable count d must be non-negative")
    return _Parser(_tokenize(text), d).parse()


def _fmt_real(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):  # integers of up to 16 digits print without a point
        return str(int(v))
    return repr(v)


def _fmt_word(word) -> str:
    runs = ((letter, len(list(run))) for letter, run in itertools.groupby(word))
    return "*".join(f"x{letter}" + (f"^{k}" if k > 1 else "") for letter, k in runs)


def _fmt_term(word, coeff):
    """Return (sign, body) with the sign pulled out for real/imaginary coefficients."""
    a, b = coeff.real, coeff.imag
    wtxt = _fmt_word(word)
    if b == 0:
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        if wtxt and mag == 1.0:
            return sign, wtxt
        body = _fmt_real(mag)
    elif a == 0:
        sign = "-" if b < 0 else "+"
        body = _fmt_real(abs(b)) + "i"
    else:
        sign = "+"
        imag_sign = "+" if b > 0 else "-"
        body = f"({_fmt_real(a)}{imag_sign}{_fmt_real(abs(b))}i)"
    if wtxt:
        body = f"{body}*{wtxt}"
    return sign, body


def format_poly(p: FreePolynomial) -> str:
    """Deterministic text form; parse_poly maps it back to p.

    Terms are emitted by descending total degree, then lexicographically on
    the letter sequence.
    """
    if not p.terms:
        return "0"
    ordered = sorted(p.terms, key=lambda item: (-len(item[0]), item[0]))
    pieces = []
    for k, (word, coeff) in enumerate(ordered):
        sign, body = _fmt_term(word, coeff)
        if k == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# --- JSON wire format ------------------------------------------------------


def poly_to_json(p: FreePolynomial) -> dict:
    return {
        "d": p.d,
        "terms": [
            {"coeff": [float(c.real), float(c.imag)], "word": [int(i) for i in w]}
            for w, c in p.terms
        ],
    }


def poly_from_json(obj, d: int | None = None) -> FreePolynomial:
    """Decode a polynomial from its JSON object or from grammar text."""
    if isinstance(obj, str):
        if d is None:
            raise ParseError("a polynomial given as text needs a variable count")
        return parse_poly(obj, d)
    if not isinstance(obj, dict):
        raise ParseError(f"expected a polynomial object or string, got {type(obj).__name__}")
    try:
        pd = json_int(obj["d"], "polynomial variable count d", 0)
        raw_terms = list(obj["terms"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"polynomial object missing or malformed field: {exc}") from None
    if d is not None and pd != d:
        raise ParseError(f"polynomial has d={pd}, expected d={d}")
    if len(raw_terms) > MAX_TERMS:
        raise ParseError(f"polynomial has {len(raw_terms)} terms, more than {MAX_TERMS}")
    terms = []
    for item in raw_terms:
        try:
            coeff, letters = item["coeff"], list(item["word"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed polynomial term: {exc}") from None
        if len(letters) > MAX_DEGREE:
            raise ParseError(f"word of degree {len(letters)} exceeds the maximum {MAX_DEGREE}")
        word = tuple(json_int(i, "polynomial word letter", 0) for i in letters)
        terms.append((word, json_complex(coeff, "polynomial coefficient")))
    try:
        return FreePolynomial(pd, tuple(terms))
    except DimensionError as exc:
        raise ParseError(str(exc)) from None
    except PreconditionError:  # a sum of duplicate words that overflows
        raise ParseError("polynomial coefficient is not finite") from None


def tuple_to_json(x: MatrixTuple) -> dict:
    return {
        "d": x.d,
        "n": x.n,
        "components": [matrix_to_json(c) for c in x.components],
    }


def tuple_from_json(obj) -> MatrixTuple:
    """Decode a point: {"components": [matrix, ...]} or {"scalars": [[re, im], ...]}.

    Either form may list "d" and "n", which must match the point.
    """
    if isinstance(obj, dict) and "scalars" in obj:
        if not isinstance(obj["scalars"], list) or not obj["scalars"]:
            raise ParseError("scalars list must be a non-empty list")
        x = MatrixTuple.from_scalars([json_complex(p, "scalar") for p in obj["scalars"]])
    elif not isinstance(obj, dict) or "components" not in obj:
        raise ParseError("expected a point object with 'components' or 'scalars'")
    elif not isinstance(obj["components"], list) or not obj["components"]:
        raise ParseError("point needs a non-empty component list")
    else:
        mats = [matrix_from_json(c) for c in obj["components"]]
        try:
            x = MatrixTuple(tuple(mats))
        except DimensionError as exc:
            raise ParseError(str(exc)) from None
    if "d" in obj and json_int(obj["d"], "point d", 1) != x.d:
        raise ParseError(f"point lists d={obj['d']} but has {x.d} components")
    if "n" in obj and json_int(obj["n"], "point n", 1) != x.n:
        raise ParseError(f"point lists n={obj['n']} but components are {x.n} x {x.n}")
    return x
