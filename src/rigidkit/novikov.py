"""Exact arithmetic in the field of generalized Laurent series s^theta.

Scalars are stored as fractions num/den of finitely supported sums
``sum_theta z_theta * s^theta`` with rational exponents theta and
coefficients z_theta in a base field (GF(2) or the rationals).  A scalar
keeps its exponents on one lattice: num and den have int keys e, standing
for theta = e/delta, with delta the smallest step that holds them all.
Fractions appear only at the boundaries: the public constructor, the text
form, valuation, expansion, free term and period groups.  All operations
are exact; no series is ever truncated except in the explicit
:func:`NovikovScalar.expand` helper, which exists as an independent
cross-check for the valuation and free-term computations.

Outside input is validated once, at the boundary: the public
``NovikovScalar(field, num, den)`` constructor checks the field, the
exponents and the coefficients.  Arithmetic results skip those checks and
pass through the one canonicalizer, :func:`_canonical`, alone.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

NEG_INF = float("-inf")

F2 = "F2"
QMODEL = "Q"

_FIELDS = (F2, QMODEL)


class FieldMismatchError(ValueError):
    pass


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


def rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd of two rationals: the generator of aZ + bZ (nonnegative)."""
    a, b = abs(_rat(a)), abs(_rat(b))
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


class PeriodGroup:
    """Cyclic subgroup of the rationals, generator * Z (generator 0 = trivial)."""

    __slots__ = ("generator",)

    def __init__(self, generator=0):
        g = _rat(generator)
        if g < 0:
            g = -g
        self.generator = g

    @classmethod
    def trivial(cls) -> "PeriodGroup":
        return cls(0)

    def residue(self, theta) -> Fraction:
        """theta modulo the group: in [0, generator), or theta itself when trivial.

        Two rationals differ by a group element exactly when their residues agree.
        """
        theta = _rat(theta)
        return theta % self.generator if self.generator else theta

    def contains(self, theta) -> bool:
        return self.residue(theta) == 0

    def distance(self, theta) -> Fraction:
        """Distance from theta to the nearest group element."""
        r = self.residue(theta)
        return min(r, self.generator - r) if self.generator else abs(r)

    def __add__(self, other: "PeriodGroup") -> "PeriodGroup":
        return PeriodGroup(rational_gcd(self.generator, other.generator))

    def __eq__(self, other) -> bool:
        return isinstance(other, PeriodGroup) and self.generator == other.generator

    def __hash__(self):
        return hash(("PeriodGroup", self.generator))

    def __repr__(self):
        return f"PeriodGroup({self.generator})"


def group_sum(g1: PeriodGroup, g2: PeriodGroup) -> PeriodGroup:
    return g1 + g2


# ---------------------------------------------------------------------------
# coefficient arithmetic in the base field

def _coeff(field, x):
    if field == F2:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError("GF(2) coefficient must be an integer")
            x = x.numerator
        return int(x) & 1
    return _rat(x)


def _cadd(field, a, b):
    return (a ^ b) if field == F2 else a + b


def _cmul(field, a, b):
    return (a & b) if field == F2 else a * b


def _cneg(field, a):
    return a if field == F2 else -a


def _cinv(field, a):
    if a == 0:
        raise ZeroDivisionError("inverse of 0")
    return 1 if field == F2 else 1 / a


# ---------------------------------------------------------------------------
# finitely supported sums {key: coefficient}: key e stands for s^(e/delta),
# with delta the step of the scalar (or of the aligned pair) holding the sum

def _poly_add(field, a, b):
    out = dict(a)
    for e, c in b.items():
        if e in out:
            s = _cadd(field, out[e], c)
            if s == 0:
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return out


def _poly_neg(field, a):
    if field == F2:
        return dict(a)
    return {e: -c for e, c in a.items()}


def _poly_mul(field, a, b):
    # canonical denominators are mostly the unit sum {0: 1}
    if len(b) == 1 and b.get(0) == 1:
        return a
    if len(a) == 1 and a.get(0) == 1:
        return b
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            c = _cmul(field, ca, cb)
            if e in out:
                s = _cadd(field, out[e], c)
                if s == 0:
                    del out[e]
                else:
                    out[e] = s
            elif c != 0:
                out[e] = c
    return out


def _on_lattice(num, den):
    """Fraction-keyed num and den as int keys over their common step 1/delta."""
    delta = math.lcm(*(e.denominator for p in (num, den) for e in p))
    return (*({e.numerator * (delta // e.denominator): c for e, c in p.items()}
              for p in (num, den)), delta)


def _aligned(x, y):
    """num and den of scalars x and y over their common step, and that step."""
    if x.delta == y.delta:
        return x.num, x.den, y.num, y.den, x.delta
    d = math.lcm(x.delta, y.delta)
    # the same sums over a finer step: every key times d / delta
    kx, ky = d // x.delta, d // y.delta
    return (*({e * kx: c for e, c in p.items()} for p in (x.num, x.den)),
            *({e * ky: c for e, c in p.items()} for p in (y.num, y.den)), d)


def _poly_gcd_reduce(field, num, den):
    """Divide num and den (both nonzero, int keys) by their polynomial gcd."""
    lo = min(min(num), min(den))
    zero = _coeff(field, 0)

    def to_dense(p):
        # the top coefficient is nonzero, so the list needs no trimming
        v = [zero] * (max(p) - lo + 1)
        for e, c in p.items():
            v[e - lo] = c
        return v

    def poly_divmod(a, b):
        # quotient and remainder of a by b (b nonzero), dense lists
        r = list(a)
        db = len(b) - 1
        inv_lb = _cinv(field, b[-1])
        q = [zero] * (len(a) - db)
        while len(r) - 1 >= db and r:
            f = _cmul(field, r[-1], inv_lb)
            shift = len(r) - 1 - db
            q[shift] = f
            for i, bc in enumerate(b):
                r[shift + i] = _cadd(field, r[shift + i], _cneg(field, _cmul(field, f, bc)))
            while r and r[-1] == 0:
                r.pop()
        return q, r

    g, b = to_dense(num), to_dense(den)
    while b:
        g, b = b, poly_divmod(g, b)[1]
    if len(g) <= 1:
        return num, den
    # num = qn * g * s^lo-ish; the common monomial factor cancels in num/den
    return tuple({i: c for i, c in enumerate(poly_divmod(to_dense(p), g)[0]) if c != 0}
                 for p in (num, den))


def _canonical(field, num, den, delta):
    """Canonical form of num/den over the step 1/delta, for clean sums num
    and den (den nonzero): reduced by the polynomial gcd, den with minimal
    key 0 and leading coefficient 1, delta minimal (gcd(delta, *keys) = 1).
    Zero is ({}, {0: 1}, 1)."""
    if not num:
        return {}, {0: _coeff(field, 1)}, 1
    # over a monomial denominator the Laurent gcd is always a unit
    if len(den) > 1:
        num, den = _poly_gcd_reduce(field, num, den)
    lo = min(den)
    if lo != 0:
        num = {e - lo: c for e, c in num.items()}
        den = {e - lo: c for e, c in den.items()}
    lead = den[max(den)]
    if lead != 1:
        inv = _cinv(field, lead)
        num = {e: _cmul(field, c, inv) for e, c in num.items()}
        den = {e: _cmul(field, c, inv) for e, c in den.items()}
    if delta > 1:
        g = math.gcd(delta, *num, *den)
        if g > 1:
            num = {e // g: c for e, c in num.items()}
            den = {e // g: c for e, c in den.items()}
            delta //= g
    return num, den, delta


def _from_parts(field, num, den, delta):
    """Scalar with the canonical num/den/delta of an arithmetic result, unchecked."""
    x = object.__new__(NovikovScalar)
    x.field, x.num, x.den, x.delta, x._hash = field, num, den, delta, None
    return x


class NovikovScalar:
    """Element of the fraction field of finitely supported sums sum z*s^theta.

    num and den map int keys e to coefficients, for the exponents e/delta;
    the step 1/delta is the coarsest that holds them (gcd(delta, *keys) = 1).
    The representation is canonical: num/den is reduced by the polynomial
    gcd, the denominator has minimal key 0 and leading coefficient 1.
    Scalars are immutable; num, den and delta never change after construction.
    """

    __slots__ = ("field", "num", "den", "delta", "_hash")

    def __init__(self, field, num, den=None):
        if field not in _FIELDS:
            raise ValueError(f"unknown base field {field!r}")
        if den is None:
            den = {0: 1}
        num, den = ({e: c for e, c in {_rat(e): _coeff(field, c) for e, c in p.items()}.items()
                     if c != 0} for p in (num, den))
        if not den:
            raise ZeroDivisionError("denominator is zero")
        self.field = field
        self.num, self.den, self.delta = _canonical(field, *_on_lattice(num, den))
        self._hash = None

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, field) -> "NovikovScalar":
        """The zero of field: one shared instance per field."""
        return _ZEROS[field] if field in _FIELDS else cls(field, {})

    @classmethod
    def one(cls, field) -> "NovikovScalar":
        """The one of field: one shared instance per field."""
        return _ONES[field] if field in _FIELDS else cls(field, {0: 1})

    @classmethod
    def monomial(cls, field, coeff, exponent) -> "NovikovScalar":
        return cls(field, {_rat(exponent): coeff})

    @classmethod
    def constant(cls, field, coeff) -> "NovikovScalar":
        return cls(field, {0: coeff})

    @classmethod
    def from_terms(cls, field, terms) -> "NovikovScalar":
        return cls(field, dict(terms))

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    def _check(self, other):
        if not isinstance(other, NovikovScalar):
            raise TypeError(f"expected NovikovScalar, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"base field mismatch: {self.field} vs {other.field}")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        self._check(other)
        f = self.field
        xn, xd, yn, yd, d = _aligned(self, other)
        num = _poly_add(f, _poly_mul(f, xn, yd), _poly_mul(f, yn, xd))
        return _from_parts(f, *_canonical(f, num, _poly_mul(f, xd, yd), d))

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        # negating the numerator keeps the canonical form
        return _from_parts(self.field, _poly_neg(self.field, self.num), self.den, self.delta)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        xn, xd, yn, yd, d = _aligned(self, other)
        return _from_parts(f, *_canonical(f, _poly_mul(f, xn, yn), _poly_mul(f, xd, yd), d))

    def inverse(self) -> "NovikovScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0")
        return _from_parts(self.field, *_canonical(self.field, self.den, self.num, self.delta))

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        f = self.field
        xn, xd, yn, yd, d = _aligned(self, other)
        return _from_parts(f, *_canonical(f, _poly_mul(f, xn, yd), _poly_mul(f, xd, yn), d))

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = NovikovScalar.one(self.field)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        return (self.field == other.field and self.delta == other.delta
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.delta,
                               tuple(sorted(self.num.items())),
                               tuple(sorted(self.den.items()))))
        return self._hash

    # -- valuation and expansion ----------------------------------------
    def valuation(self):
        """Top exponent of the series; -inf for 0."""
        if self.is_zero():
            return NEG_INF
        return Fraction(max(self.num) - max(self.den), self.delta)

    def leading_coefficient(self):
        if self.is_zero():
            raise ValueError("0 has no leading coefficient")
        return self.num[max(self.num)]  # den's leading coefficient is 1

    def expand(self, num_terms: int = 10):
        """Truncated descending-series expansion, at most num_terms terms.

        Returns a dict {exponent: coefficient}.  Independent of the exact
        fraction arithmetic, so it serves as an oracle for valuation and
        free-term computations.
        """
        if self.is_zero():
            return {}
        if len(self.den) == 1:
            # a reduced fraction's series terminates exactly over a monomial
            # den, which is 1 in canonical form: the series is num itself
            out = self.num
        else:
            # expansion keys lie on the scalar's own lattice; step down by
            # whole keys until enough terms are collected
            floor = (max(self.num) - max(self.den)
                     - num_terms * (len(self.den) + len(self.num)))
            out = self._series(floor)
            for _ in range(64):
                if len(out) >= num_terms:
                    break
                floor -= num_terms * 4
                out = self._series(floor)
        return {Fraction(e, self.delta): out[e] for e in sorted(out, reverse=True)[:num_terms]}

    def expand_to(self, min_exponent):
        """All series terms with exponent >= min_exponent, exactly."""
        if self.is_zero():
            return {}
        m = _rat(min_exponent)
        # the smallest key e with e/delta >= m is ceil(m * delta)
        out = self._series(-(-m.numerator * self.delta // m.denominator))
        return {Fraction(e, self.delta): c for e, c in out.items()}

    def _series(self, cutoff):
        """All series terms with key >= cutoff, on int keys (self nonzero)."""
        f = self.field
        e_d = max(self.den)
        # den = s^e*(1 - r), r strictly lower order: its leading coefficient is 1
        r = {e - e_d: _cneg(f, c) for e, c in self.den.items() if e != e_d}
        base = {e - e_d: c for e, c in self.num.items()}
        top_base = max(base)
        out = {}
        power = {0: _coeff(f, 1)}
        guard = 0
        while power:
            contrib = _poly_mul(f, base, power)
            for e, c in contrib.items():
                if e >= cutoff:
                    out[e] = _cadd(f, out.get(e, _coeff(f, 0)), c)
            power = _poly_mul(f, power, r)
            # drop power terms that can no longer contribute above cutoff
            power = {e: c for e, c in power.items() if e + top_base >= cutoff}
            guard += 1
            if guard > 100000:
                raise RuntimeError("expansion did not terminate")
        return {e: c for e, c in out.items() if c != 0}

    def free_term(self):
        """Coefficient of s^0 in the full series expansion."""
        zero = _coeff(self.field, 0)
        if self.is_zero() or max(self.num) < max(self.den):
            return zero
        return self._series(0).get(0, zero)

    def exponents_in(self, group: PeriodGroup) -> bool:
        # e/delta lies in (p/q)Z exactly when delta*p divides e*q
        g = group.generator
        m, q = self.delta * g.numerator, g.denominator
        keys = (*self.num, *self.den)
        return all(e == 0 for e in keys) if m == 0 else all(e * q % m == 0 for e in keys)

    # -- text form -------------------------------------------------------
    def to_text(self) -> str:
        num = _sum_to_text(self.field, self.num, self.delta)
        if len(self.den) == 1:  # a monomial den is 1 in canonical form
            return num
        return f"({num})/({_sum_to_text(self.field, self.den, self.delta)})"

    def __repr__(self):
        return f"NovikovScalar[{self.field}]({self.to_text()})"


# scalars are immutable, so each field's zero and one are built once
_ZEROS = {f: NovikovScalar(f, {}) for f in _FIELDS}
_ONES = {f: NovikovScalar(f, {0: 1}) for f in _FIELDS}


def _frac_text(x) -> str:
    x = _rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _sum_to_text(field, poly, delta) -> str:
    if not poly:
        return "0"
    parts = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        if field == F2:
            mag, neg = str(c), False
        else:
            neg = c < 0
            mag = _frac_text(-c if neg else c)
        if "/" in mag:
            mag = f"({mag})"
        term = f"{mag}*s^({_frac_text(Fraction(e, delta))})"
        sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
        parts.append(sign + term)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^(?:\(?(?P<coef>-?\d+(?:/\d+)?)\)?\*)?"
    r"(?:s\^\((?P<exp>-?\d+(?:/\d+)?)\))?$")


def _split_top_level(text, seps):
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in seps and cur.strip():
            parts.append(cur)
            parts.append(ch)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return parts


def _parse_sum(field, text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        # strip parens only if they wrap the whole expression
        depth = 0
        wraps = True
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i < len(text) - 1:
                    wraps = False
                    break
        if wraps:
            text = text[1:-1].strip()
    if text == "0":
        return {}
    chunks = _split_top_level(text, "+-")
    poly = {}
    sign = 1
    for chunk in chunks:
        chunk = chunk.strip()
        if chunk == "+":
            sign = 1
            continue
        if chunk == "-":
            sign = -1
            continue
        if not chunk:
            continue
        compact = chunk.replace(" ", "")
        while compact and compact[0] in "+-":
            if compact[0] == "-":
                sign = -sign
            compact = compact[1:]
        m = _TERM_RE.match(compact)
        if not m or (m.group("coef") is None and m.group("exp") is None):
            # bare rational constant, possibly parenthesized
            bare = compact.strip("()")
            try:
                coef = Fraction(bare)
                exp = Fraction(0)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cannot parse term {chunk!r}")
        else:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            exp = Fraction(m.group("exp")) if m.group("exp") else Fraction(0)
        coef = sign * coef
        c = _coeff(field, coef if field != F2 else int(coef) & 1)
        if exp in poly:
            c = _cadd(field, poly[exp], c)
        if c == 0:
            poly.pop(exp, None)
        else:
            poly[exp] = c
        sign = 1
    return poly


def parse_scalar(field, text: str) -> NovikovScalar:
    """Parse the textual form produced by NovikovScalar.to_text (exact round-trip)."""
    parts = _split_top_level(text.strip(), "/")
    pieces = [p for p in parts if p.strip() and p.strip() != "/"]
    slashes = sum(1 for p in parts if p.strip() == "/")
    if slashes == 0:
        return NovikovScalar(field, _parse_sum(field, text))
    if slashes == 1 and len(pieces) == 2:
        num = _parse_sum(field, pieces[0])
        den = _parse_sum(field, pieces[1])
        return NovikovScalar(field, num, den)
    raise ValueError(f"cannot parse scalar {text!r}")


def valuation(x: NovikovScalar):
    return x.valuation()


class LambdaElement:
    """Finitely supported sum of q-powers with NovikovScalar coefficients.

    q has degree 2 and s degree 0; a term at q-power k contributes degree 2k.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        t = {}
        if terms:
            for k, sc in terms.items():
                if not isinstance(sc, NovikovScalar):
                    raise TypeError("LambdaElement coefficients must be NovikovScalar")
                if sc.field != field:
                    raise FieldMismatchError("coefficient field mismatch")
                if not sc.is_zero():
                    t[int(k)] = sc
        self.terms = t

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def one(cls, field):
        return cls(field, {0: NovikovScalar.one(field)})

    @classmethod
    def q_power(cls, field, k, scalar=None):
        return cls(field, {k: scalar if scalar is not None else NovikovScalar.one(field)})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if not isinstance(other, LambdaElement):
            raise TypeError("expected LambdaElement")
        if other.field != self.field:
            raise FieldMismatchError("base field mismatch")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for k, sc in other.terms.items():
            t[k] = t[k] + sc if k in t else sc
        return LambdaElement(self.field, t)

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __neg__(self):
        return LambdaElement(self.field, {k: -sc for k, sc in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NovikovScalar):
            return LambdaElement(self.field,
                                 {k: sc * other for k, sc in self.terms.items()})
        self._check(other)
        out = {}
        for k1, s1 in self.terms.items():
            for k2, s2 in other.terms.items():
                k = k1 + k2
                p = s1 * s2
                out[k] = out[k] + p if k in out else p
        return LambdaElement(self.field, out)

    def scale(self, scalar: NovikovScalar):
        return self * scalar

    def coefficient(self, k: int) -> NovikovScalar:
        sc = self.terms.get(k)
        return sc if sc is not None else NovikovScalar.zero(self.field)

    def valuation(self):
        if not self.terms:
            return NEG_INF
        return max(sc.valuation() for sc in self.terms.values())

    def q_powers(self):
        return sorted(self.terms)

    def exponents_in(self, group: PeriodGroup) -> bool:
        return all(sc.exponents_in(group) for sc in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, tuple(sorted((k, hash(v)) for k, v in self.terms.items()))))

    def to_text(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k].to_text()})*q^({k})" for k in sorted(self.terms, reverse=True))

    def __repr__(self):
        return f"LambdaElement[{self.field}]({self.to_text()})"


def lambda_valuation(lam: LambdaElement):
    return lam.valuation()
