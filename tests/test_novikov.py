import math
import random
from fractions import Fraction as Fr

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_novikov as oracle
from fraction_novikov import FractionScalar
from rigidkit.novikov import (
    F2,
    NEG_INF,
    QMODEL,
    FieldMismatchError,
    LambdaElement,
    NovikovScalar,
    PeriodGroup,
    _on_lattice,
    _poly_gcd_reduce,
    group_sum,
    parse_scalar,
)


def sc(terms, field=QMODEL):
    return NovikovScalar.from_terms(field, terms)


def exponent_keyed(x):
    """num and den of x keyed by Fraction exponents, as the oracle stores them."""
    return tuple({Fr(e, x.delta): c for e, c in p.items()} for p in (x.num, x.den))


def series_product_oracle(x, y, depth=12):
    """Multiply truncated expansions; independent of the fraction arithmetic."""
    ex, ey = x.expand(depth), y.expand(depth)
    out = {}
    for a, ca in ex.items():
        for b, cb in ey.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


class TestValuation:
    def test_zero_is_minus_infinity(self):
        assert NovikovScalar.zero(QMODEL).valuation() == NEG_INF
        assert NovikovScalar.zero(F2).valuation() == NEG_INF

    def test_max_of_exponents(self):
        assert sc({3: 1, 1: 1}).valuation() == 3

    def test_fraction_valuation_matches_expansion(self):
        x = NovikovScalar(QMODEL, {2: 1, 0: 1}, {5: 1})  # (s^2+1)/s^5
        assert x.valuation() == -3
        top = max(x.expand(10))
        assert top == -3

    def test_multiplicativity_against_series_oracle(self):
        rng = random.Random(3)
        for _ in range(100):
            x = sc({Fr(rng.randrange(-5, 6)): Fr(rng.randrange(1, 7)),
                    Fr(rng.randrange(-5, 6)): Fr(rng.randrange(1, 7))})
            y = sc({Fr(rng.randrange(-5, 6)): Fr(rng.randrange(1, 7))})
            if x.is_zero() or y.is_zero():
                continue
            assert (x * y).valuation() == x.valuation() + y.valuation()
            oracle = series_product_oracle(x, y)
            assert max(oracle) == (x * y).valuation()

    def test_ultrametric(self):
        rng = random.Random(5)
        for _ in range(200):
            x = sc({rng.randrange(-4, 5): rng.randrange(-3, 4)})
            y = sc({rng.randrange(-4, 5): rng.randrange(-3, 4)})
            s = x + y
            if s.is_zero():
                continue
            assert s.valuation() <= max(x.valuation(), y.valuation())
            if x.valuation() != y.valuation():
                assert s.valuation() == max(x.valuation(), y.valuation())


class TestFieldOps:
    def test_polynomial_identity(self):
        a = sc({1: 1, 0: 1})
        b = sc({1: 1, 0: -1})
        assert (a * b) == sc({2: 1, 0: -1})

    def test_inverse_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            x = sc({Fr(rng.randrange(-6, 7), rng.randrange(1, 4)): rng.randrange(1, 9),
                    rng.randrange(-6, 7): rng.randrange(0, 5)})
            if x.is_zero():
                continue
            assert (x * x.inverse()).is_one()
            assert (x / x).is_one()

    def test_division_by_zero(self):
        x = sc({0: 1})
        with pytest.raises(ZeroDivisionError):
            x / NovikovScalar.zero(QMODEL)
        with pytest.raises(ZeroDivisionError):
            NovikovScalar.zero(QMODEL).inverse()

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            sc({0: 1}) + NovikovScalar.one(F2)

    def test_f2_arithmetic(self):
        a = NovikovScalar.from_terms(F2, {1: 1, 0: 1})
        assert (a + a).is_zero()
        assert (a * a) == NovikovScalar.from_terms(F2, {2: 1, 0: 1})

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)),
                    min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, ta, tb, tc_):
        x, y, z = (NovikovScalar(QMODEL, dict(t)) for t in (ta, tb, tc_))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x - x == NovikovScalar.zero(QMODEL)
        if not y.is_zero():
            assert (x / y) * y == x

    def test_powers(self):
        x = sc({1: 2, 0: 1})
        assert x ** 3 == x * x * x
        assert x ** 0 == NovikovScalar.one(QMODEL)
        assert x ** -2 == (x * x).inverse()


class TestSerialization:
    def test_spec_shape_roundtrip(self):
        x = NovikovScalar(QMODEL, {3: 1, 1: 1}, {0: 1})
        assert parse_scalar(QMODEL, "(1*s^(3) + 1*s^(1))/(1*s^(0))") == x
        assert parse_scalar(QMODEL, x.to_text()) == x

    def test_random_roundtrips(self):
        rng = random.Random(11)
        for _ in range(100):
            num = {Fr(rng.randrange(-8, 9), rng.randrange(1, 5)): Fr(rng.randrange(-5, 6))
                   for _ in range(rng.randrange(1, 4))}
            den = {Fr(rng.randrange(-4, 5)): Fr(rng.randrange(1, 6))}
            x = NovikovScalar(QMODEL, num, den)
            assert parse_scalar(QMODEL, x.to_text()) == x

    def test_f2_roundtrip(self):
        x = NovikovScalar.from_terms(F2, {Fr(3, 2): 1, 0: 1})
        assert parse_scalar(F2, x.to_text()) == x

    def test_zero(self):
        assert parse_scalar(QMODEL, "0").is_zero()

    def test_plain_rationals_and_stacked_slashes(self):
        assert parse_scalar(QMODEL, "3/4") == NovikovScalar.constant(QMODEL, Fr(3, 4))
        assert parse_scalar(QMODEL, "(1/2)*s^(1)") == NovikovScalar.monomial(QMODEL, Fr(1, 2), 1)
        with pytest.raises(ValueError):
            parse_scalar(QMODEL, "1/2/3")


@pytest.mark.parametrize("field", [QMODEL, F2])
def test_constants_are_shared(field):
    assert NovikovScalar.zero(field) is NovikovScalar.zero(field)
    assert NovikovScalar.zero(field) == NovikovScalar(field, {})
    assert NovikovScalar.one(field) is NovikovScalar.one(field)
    assert NovikovScalar.one(field) == NovikovScalar(field, {0: 1})
    with pytest.raises(ValueError):
        NovikovScalar.zero("GF(3)")


@pytest.mark.parametrize("field", [QMODEL, F2])
def test_monomial_denominator_needs_no_gcd(field):
    # 5-8 numerator terms over c*s^e: the Laurent gcd is a unit, so the
    # constructor skips the reduction and still lands on the reduced form
    rng = random.Random(f"monomial-den/{field}")
    exponents = sorted({Fr(k, d) for k in range(-12, 13) for d in (1, 2, 3, 6)})
    for _ in range(200):
        num = {e: 1 if field == F2 else Fr(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 3))
               for e in rng.sample(exponents, rng.randint(5, 8))}
        den = {Fr(rng.randint(-6, 6), rng.choice((1, 2, 5))): 1 if field == F2 else Fr(rng.randint(1, 7))}
        n, d, delta = _on_lattice(num, den)
        assert _poly_gcd_reduce(field, n, d) == (n, d)
        x = NovikovScalar(field, num, den)
        assert x == NovikovScalar(field, *({Fr(e, delta): c for e, c in p.items()}
                                           for p in _poly_gcd_reduce(field, n, d)))


def small_scalar(rng, field, d, nonzero=False):
    """At most 3 terms per sum with exponents in (1/d)Z, d at most 3: Euclid
    over Q blows the coefficients up on larger inputs."""
    def terms(lo):
        exps = {Fr(rng.randint(-2 * d, 2 * d), d) for _ in range(rng.randint(lo, 3))}
        return {e: 1 if field == F2 else Fr(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                for e in exps}
    return NovikovScalar(field, terms(1 if nonzero else 0), terms(1))


def same_scalar(got, want):
    assert (got.num, got.den, got.delta) == (want.num, want.den, want.delta)
    assert got.to_text() == want.to_text() and hash(got) == hash(want)


def same_as_oracle(got, want):
    """got (int keys over 1/delta) is want (Fraction keys) term for term."""
    assert exponent_keyed(got) == (want.num, want.den)
    assert got.to_text() == want.to_text()
    assert got.delta >= 1 and math.gcd(got.delta, *got.num, *got.den) == 1


@pytest.mark.parametrize("field", [QMODEL, F2])
def test_arithmetic_matches_the_public_constructor(field):
    # every arithmetic result equals the validated constructor applied to
    # the raw polynomial result: one canonical form, whichever path built it
    rng = random.Random(f"oracle/{field}")
    mul = lambda a, b: oracle._poly_mul(field, a, b)
    add = lambda a, b: oracle._poly_add(field, a, b)
    neg = lambda a: oracle._poly_neg(field, a)
    for _ in range(200):
        d = rng.randint(1, 3)
        x, y = small_scalar(rng, field, d), small_scalar(rng, field, d, nonzero=True)
        (xn, xd), (yn, yd) = exponent_keyed(x), exponent_keyed(y)
        same_scalar(x + y, NovikovScalar(field, add(mul(xn, yd), mul(yn, xd)), mul(xd, yd)))
        same_scalar(x - y, NovikovScalar(field, add(mul(xn, yd), neg(mul(yn, xd))),
                                         mul(xd, yd)))
        same_scalar(x - y, x + (-y))
        same_scalar(x * y, NovikovScalar(field, mul(xn, yn), mul(xd, yd)))
        same_scalar(x / y, NovikovScalar(field, mul(xn, yd), mul(xd, yn)))
        same_scalar(-y, NovikovScalar(field, neg(yn), yd))
        same_scalar(y.inverse(), NovikovScalar(field, yd, yn))
        k = rng.choice([-2, 2])
        num, den = (yn, yd) if k > 0 else (yd, yn)
        same_scalar(y ** k, NovikovScalar(field, mul(num, num), mul(den, den)))
        # and the Fraction-keyed class computes the same scalars
        X, Y = FractionScalar(field, xn, xd), FractionScalar(field, yn, yd)
        for got, want in ((x + y, X + Y), (x - y, X - Y), (x * y, X * Y), (x / y, X / Y),
                          (-y, -Y), (y.inverse(), Y.inverse()), (y ** k, Y ** k)):
            same_as_oracle(got, want)


@pytest.mark.parametrize("field", [QMODEL, F2])
def test_expansion_terminates_only_over_a_monomial_denominator(field):
    rng = random.Random(f"expand/{field}")
    for _ in range(60):
        x = small_scalar(rng, field, rng.randint(1, 3), nonzero=True)
        n = rng.randint(2, 6)
        if len(x.expand(n)) < n:
            assert len(x.den) == 1


@pytest.mark.parametrize("field", [QMODEL, F2])
def test_expansion_over_a_monomial_denominator_is_num_over_den(field):
    x = NovikovScalar(field, {10: 1, -100: 1})
    assert x.expand(5) == {10: 1, -100: 1}
    assert x.expand(1) == {10: 1}
    y = NovikovScalar(field, {Fr(7, 2): 1, -50: 1, -300: 1}, {5: 1})
    assert y.expand(2) == {Fr(-3, 2): 1, -55: 1}
    assert y.expand(10) == {Fr(-3, 2): 1, -55: 1, -305: 1}
    rng = random.Random(f"monomial/{field}")
    for _ in range(60):
        num = exponent_keyed(small_scalar(rng, field, rng.randint(1, 3), nonzero=True))[0]
        e = Fr(rng.randint(-12, 12), rng.randint(1, 3))
        c = 1 if field == F2 else rng.choice([2, -3])
        want = sorted(((k - e, Fr(v) / c) for k, v in num.items()), reverse=True)
        for n in (1, 3, 10):
            assert NovikovScalar(field, num, {e: c}).expand(n) == dict(want[:n])


@pytest.mark.parametrize("field", [QMODEL, F2])
def test_half_steps_multiply_to_a_whole_step(field):
    h = NovikovScalar.monomial(field, 1, Fr(1, 2))
    assert h.delta == 2 and h.num == {1: 1}
    got, want = h * h, NovikovScalar.monomial(field, 1, 1)
    assert got == want and (got.num, got.den, got.delta) == ({1: 1}, {0: 1}, 1)
    assert hash(got) == hash(want) and got.to_text() == want.to_text() == "1*s^(1)"


@pytest.mark.parametrize("field", [QMODEL, F2])
def test_a_cancelled_third_step_leaves_the_half_step(field):
    h, t = NovikovScalar.monomial(field, 1, Fr(1, 2)), NovikovScalar.monomial(field, 1, Fr(1, 3))
    assert (h + t).delta == 6
    got = (h + t) - t
    assert got.delta == 2 and got == h and hash(got) == hash(h)
    assert got.to_text() == h.to_text() == "1*s^(1/2)"


def mixed_step_scalar(rng, field, nonzero=False):
    """num and den with exponents in (1/d)Z for a d drawn from 1, 2, 3, 6."""
    def terms(lo, d):
        exps = {Fr(rng.randint(-2 * d, 2 * d), d) for _ in range(rng.randint(lo, 3))}
        return {e: 1 if field == F2 else Fr(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                for e in exps}
    return terms(1 if nonzero else 0, rng.choice((2, 3, 6))), terms(1, rng.choice((1, 2, 3, 6)))


@pytest.mark.parametrize("field", [QMODEL, F2])
def test_mixed_steps_match_the_fraction_oracle(field):
    rng = random.Random(f"steps/{field}")
    groups = (PeriodGroup(Fr(1, 6)), PeriodGroup(Fr(1, 4)), PeriodGroup.trivial())
    steps = set()
    for _ in range(60):
        xt, yt = mixed_step_scalar(rng, field), mixed_step_scalar(rng, field, nonzero=True)
        x, y = NovikovScalar(field, *xt), NovikovScalar(field, *yt)
        X, Y = FractionScalar(field, *xt), FractionScalar(field, *yt)
        for got, want in ((x, X), (y, Y), (x + y, X + Y), (x - y, X - Y), (x * y, X * Y),
                          (x / y, X / Y), (y.inverse(), Y.inverse())):
            same_as_oracle(got, want)
            steps.add(got.delta)
            # equal values hash equal, whichever step built them
            rebuilt = NovikovScalar(field, *exponent_keyed(got))
            assert rebuilt == got and hash(rebuilt) == hash(got)
            assert got.valuation() == want.valuation()
            assert got.expand_to(Fr(-1, 2)) == want.expand_to(Fr(-1, 2))
            assert got.free_term() == want.free_term()
            for g in groups:
                assert got.exponents_in(g) == want.exponents_in(g)
        # the oracle's truncated expansion is slow: check it on the quotient
        assert (x / y).expand(3) == (X / Y).expand(3)
    assert {1, 2, 3, 6} <= steps


def as_sympy(terms, t, step):
    """sum c*s^e over Q as a Laurent polynomial in t = s^(1/step)."""
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * t ** int(e * step)
                       for e, c in terms.items()))


def test_arithmetic_against_sympy_canonical_forms():
    # over Q with t = s^(1/6): sympy's cancelled form of each result has the
    # same value, and the scalar's num and den share no factor
    rng = random.Random("sympy")
    t = sympy.Symbol("t")
    for _ in range(40):
        xt, yt = mixed_step_scalar(rng, QMODEL), mixed_step_scalar(rng, QMODEL, nonzero=True)
        x, y = NovikovScalar(QMODEL, *xt), NovikovScalar(QMODEL, *yt)
        xs = as_sympy(xt[0], t, 6) / as_sympy(xt[1], t, 6)
        ys = as_sympy(yt[0], t, 6) / as_sympy(yt[1], t, 6)
        for got, want in ((x + y, xs + ys), (x - y, xs - ys), (x * y, xs * ys), (x / y, xs / ys)):
            num, den = (as_sympy(p, t, 6) for p in exponent_keyed(got))
            assert sympy.cancel(num / den - want) == 0
            if num != 0:
                # both are polynomials in t: den has lowest term t^0, num may
                # need a power of t, which is a unit of the Laurent ring
                low = min(min(got.num), 0)
                gcd = sympy.gcd(sympy.expand(num * t ** (-low * 6 // got.delta)), den)
                assert sympy.Poly(gcd, t).degree() == 0


class TestPeriodGroup:
    def test_group_sum_gcd(self):
        assert group_sum(PeriodGroup(Fr(1, 2)), PeriodGroup(Fr(1, 3))) == PeriodGroup(Fr(1, 6))
        assert group_sum(PeriodGroup(1), PeriodGroup(1)) == PeriodGroup(1)
        assert group_sum(PeriodGroup(0), PeriodGroup(Fr(2, 7))) == PeriodGroup(Fr(2, 7))

    def test_membership(self):
        g = PeriodGroup(Fr(1, 3))
        assert g.contains(Fr(5, 3)) and not g.contains(Fr(1, 2))
        t = PeriodGroup.trivial()
        assert t.contains(0) and not t.contains(Fr(1, 9))

    def test_membership_closure_under_ops(self):
        g = PeriodGroup(Fr(1, 4))
        x = sc({Fr(1, 2): 1, Fr(-1, 4): 3})
        y = sc({Fr(3, 4): 2})
        for z in (x + y, x * y, x / y):
            assert z.exponents_in(g)


class TestLambda:
    def test_valuation_max_over_terms(self):
        lam = LambdaElement(QMODEL, {-1: sc({2: 1}), 1: sc({1: 1})})
        assert lam.valuation() == 2
        assert LambdaElement.zero(QMODEL).valuation() == NEG_INF

    def test_monomial_shift(self):
        lam = LambdaElement(QMODEL, {0: sc({1: 1}), 2: sc({-2: 1})})
        shift = lam * sc({Fr(5, 2): 1})
        assert shift.valuation() == lam.valuation() + Fr(5, 2)

    def test_product_degree_bookkeeping(self):
        a = LambdaElement.q_power(QMODEL, 2)
        b = LambdaElement.q_power(QMODEL, -3, sc({1: 1}))
        assert (a * b).q_powers() == [-1]
