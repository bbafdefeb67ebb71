"""The Fraction-keyed Novikov scalar, frozen as a test oracle.

This is ``rigidkit.novikov.NovikovScalar`` as it stood before scalars moved
to int exponent keys over one step 1/delta: every exponent is a
``Fraction`` dict key, and the gcd reduction substitutes t = s^(1/delta).
Tests hold the int-keyed class to it term for term, in text and in value.
Do not edit it to follow ``rigidkit.novikov``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from rigidkit.novikov import _FIELDS, F2, NEG_INF, FieldMismatchError, _rat

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
# finitely supported sums  {exponent: coefficient}

def _poly_clean(field, p):
    return {e: c for e, c in p.items() if c != 0}


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


def _poly_scale(field, a, c, shift=Fraction(0)):
    if c == 0:
        return {}
    return {e + shift: _cmul(field, coef, c) for e, coef in a.items()}


def _poly_top(a):
    return max(a) if a else None


def _poly_lead(a):
    return a[max(a)]


def _poly_gcd_reduce(field, num, den):
    """Divide num and den (both nonzero) by their polynomial gcd (via a
    t = s^(1/delta) substitution)."""
    exps = list(num) + list(den)
    delta = math.lcm(*(e.denominator for e in exps))
    lo = min(exps)

    def to_dense(p):
        deg = max(int((e - lo) * delta) for e in p) if p else 0
        v = [0 if field == F2 else Fraction(0)] * (deg + 1)
        for e, c in p.items():
            v[int((e - lo) * delta)] = c
        return v

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    def poly_divmod(a, b):
        # quotient and remainder of a by b (b nonzero), dense lists
        r = list(a)
        db = len(b) - 1
        inv_lb = _cinv(field, b[-1])
        q = [_coeff(field, 0)] * (len(a) - db)
        while len(r) - 1 >= db and r:
            f = _cmul(field, r[-1], inv_lb)
            shift = len(r) - 1 - db
            q[shift] = f
            for i, bc in enumerate(b):
                r[shift + i] = _cadd(field, r[shift + i], _cneg(field, _cmul(field, f, bc)))
            r = trim(r)
        return q, r

    a = trim(to_dense(num))
    b = trim(to_dense(den))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    g = a
    if len(g) <= 1:
        return num, den

    def to_sparse(v, base):
        return {base + Fraction(i, delta): c for i, c in enumerate(v) if c != 0}

    qn = poly_divmod(trim(to_dense(num)), g)[0]
    qd = poly_divmod(trim(to_dense(den)), g)[0]
    # num = qn * g * s^lo-ish; the common monomial factor cancels in num/den
    return to_sparse(qn, Fraction(0)), to_sparse(qd, Fraction(0))


def _canonical(field, num, den):
    """Canonical form of num/den for clean sums num and den (den nonzero):
    reduced by the polynomial gcd, den with minimal exponent 0 and leading
    coefficient 1.  Zero is ({}, {0: 1})."""
    if not num:
        return {}, {Fraction(0): _coeff(field, 1)}
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
    return num, den


def _from_parts(field, num, den):
    """Scalar with the canonical num/den of an arithmetic result, unchecked."""
    x = object.__new__(FractionScalar)
    x.field, x.num, x.den, x._hash = field, num, den, None
    return x


class FractionScalar:
    """Element of the fraction field of finitely supported sums sum z*s^theta.

    The representation is canonical: num/den is reduced by the polynomial
    gcd, the denominator has minimal exponent 0 and leading coefficient 1.
    Scalars are immutable; num and den are never changed after construction.
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field, num, den=None):
        if field not in _FIELDS:
            raise ValueError(f"unknown base field {field!r}")
        if den is None:
            den = {Fraction(0): 1}
        num = _poly_clean(field, {_rat(e): _coeff(field, c) for e, c in num.items()})
        den = _poly_clean(field, {_rat(e): _coeff(field, c) for e, c in den.items()})
        if not den:
            raise ZeroDivisionError("denominator is zero")
        self.field = field
        self.num, self.den = _canonical(field, num, den)
        self._hash = None

    @classmethod
    def one(cls, field) -> "FractionScalar":
        return cls(field, {Fraction(0): 1})

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    def _check(self, other):
        if not isinstance(other, FractionScalar):
            raise TypeError(f"expected FractionScalar, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"base field mismatch: {self.field} vs {other.field}")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        self._check(other)
        f = self.field
        num = _poly_add(f, _poly_mul(f, self.num, other.den),
                        _poly_mul(f, other.num, self.den))
        return _from_parts(f, *_canonical(f, num, _poly_mul(f, self.den, other.den)))

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        # negating the numerator keeps the canonical form
        return _from_parts(self.field, _poly_neg(self.field, self.num), self.den)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return _from_parts(f, *_canonical(f, _poly_mul(f, self.num, other.num),
                                          _poly_mul(f, self.den, other.den)))

    def inverse(self) -> "FractionScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0")
        return _from_parts(self.field, *_canonical(self.field, self.den, self.num))

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        f = self.field
        return _from_parts(f, *_canonical(f, _poly_mul(f, self.num, other.den),
                                          _poly_mul(f, self.den, other.num)))

    def __pow__(self, k: int):
        if k == 0:
            return FractionScalar.one(self.field)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        out = FractionScalar.one(self.field)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, FractionScalar):
            return NotImplemented
        return (self.field == other.field and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field,
                               tuple(sorted(self.num.items())),
                               tuple(sorted(self.den.items()))))
        return self._hash

    # -- valuation and expansion ----------------------------------------
    def valuation(self):
        """Top exponent of the series; -inf for 0."""
        if self.is_zero():
            return NEG_INF
        return _poly_top(self.num) - _poly_top(self.den)

    def leading_coefficient(self):
        if self.is_zero():
            raise ValueError("0 has no leading coefficient")
        f = self.field
        return _cmul(f, _poly_lead(self.num), _cinv(f, _poly_lead(self.den)))

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
            # den: it is num / den, down to the lowest numerator term
            return dict(sorted(self.expand_to(min(self.num) - _poly_top(self.den)).items(),
                               reverse=True)[:num_terms])
        # expansion exponents live in a discrete progression; step down
        # by the exponent lattice of num/den until enough terms collected
        delta = math.lcm(*(e.denominator for e in (*self.num, *self.den)))
        step = Fraction(1, delta)
        floor = self.valuation() - num_terms * step * (len(self.den) + len(self.num))
        out = self.expand_to(floor)
        for _ in range(64):
            if len(out) >= num_terms:
                break
            floor -= num_terms * step * 4
            out = self.expand_to(floor)
        return dict(sorted(out.items(), reverse=True)[:num_terms])

    def expand_to(self, min_exponent):
        """All series terms with exponent >= min_exponent, exactly."""
        if self.is_zero():
            return {}
        f = self.field
        m = _rat(min_exponent)
        e_d = _poly_top(self.den)
        c_d = self.den[e_d]
        inv = _cinv(f, c_d)
        # den = c*s^e*(1 - r),  r strictly lower order
        r = {e - e_d: _cneg(f, _cmul(f, c, inv)) for e, c in self.den.items() if e != e_d}
        base = _poly_scale(f, self.num, inv, -e_d)
        cutoff = m
        out = {}
        power = {Fraction(0): _coeff(f, 1)}
        guard = 0
        while power:
            contrib = _poly_mul(f, base, power)
            for e, c in contrib.items():
                if e >= cutoff:
                    out[e] = _cadd(f, out.get(e, _coeff(f, 0)), c)
            power = _poly_mul(f, power, r)
            # drop power terms that can no longer contribute above cutoff
            if base:
                top_base = _poly_top(base)
                power = {e: c for e, c in power.items() if e + top_base >= cutoff}
            guard += 1
            if guard > 100000:
                raise RuntimeError("expansion did not terminate")
        return {e: c for e, c in out.items() if c != 0}

    def free_term(self):
        """Coefficient of s^0 in the full series expansion."""
        if self.is_zero():
            return _coeff(self.field, 0)
        if self.valuation() < 0:
            return _coeff(self.field, 0)
        return self.expand_to(0).get(Fraction(0), _coeff(self.field, 0))

    def exponents_in(self, group) -> bool:
        return (all(group.contains(e) for e in self.num)
                and all(group.contains(e) for e in self.den))

    # -- text form -------------------------------------------------------
    def to_text(self) -> str:
        num = _sum_to_text(self.field, self.num)
        if self.den == {Fraction(0): _coeff(self.field, 1)}:
            return num
        return f"({num})/({_sum_to_text(self.field, self.den)})"

    def __repr__(self):
        return f"FractionScalar[{self.field}]({self.to_text()})"


def _frac_text(x) -> str:
    x = _rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _sum_to_text(field, poly) -> str:
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
        term = f"{mag}*s^({_frac_text(e)})"
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)

