"""The elimination kernel over both fields.

Rational side: hypothesis-generated matrices against sympy.  Novikov side:
algebraic identities on corpus matrices.  Both: the documented edge cases.
"""

import random
from fractions import Fraction as Fr

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidkit.linalg as la
from rigidkit.corpus import _random_scalar, random_decorated_complex
from rigidkit.novikov import F2, QMODEL, NovikovScalar, PeriodGroup
from rigidkit.rational_geometry import mat_det, mat_rank, nullspace_basis, solve_linear

# ---------------------------------------------------------------------------
# rationals

ENTRIES = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def rational_matrices(draw, square=False):
    """0-5 rows and columns; integer or rational entries; often rank-deficient."""
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))
    if draw(st.booleans()):
        return [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    # a product U V of integer factors through k < min(m, n) dimensions
    k = draw(st.integers(0, max(min(m, n) - 1, 0)))
    u = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(m)]
    v = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
    return [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


def sym(a, ncols):
    return sympy.Matrix(len(a), ncols, [sympy.Rational(x.numerator, x.denominator)
                                        for row in a for x in map(Fr, row)])


def rat_mat_vec(a, x):
    return [sum(Fr(c) * y for c, y in zip(row, x)) for row in a]


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_rational_rank_and_nullspace_against_sympy(a):
    n = len(a[0]) if a else 0
    r = sym(a, n).rank()
    assert mat_rank(a) == r
    if not a:
        return
    basis = nullspace_basis(a)
    assert len(basis) == n - r
    assert all(isinstance(v, tuple) for v in basis)
    for v in basis:
        assert all(x == 0 for x in rat_mat_vec(a, v))
    if basis:
        assert mat_rank(basis) == len(basis)


@given(rational_matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_rational_det_against_sympy(a):
    assert mat_det(a) == sym(a, len(a)).det()


@given(rational_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_rational_solve_consistency_against_sympy(a, data):
    if not a:
        return
    n = len(a[0])
    x0 = [data.draw(ENTRIES) for _ in range(n)]
    b = rat_mat_vec(a, x0)
    x = solve_linear(a, b)
    assert isinstance(x, list)
    assert rat_mat_vec(a, x) == b
    b2 = [data.draw(ENTRIES) for _ in a]
    consistent = sym(a, n).rank() == sym([list(r) + [c] for r, c in zip(a, b2)], n + 1).rank()
    x2 = solve_linear(a, b2)
    assert (x2 is not None) == consistent
    if x2 is not None:
        assert rat_mat_vec(a, x2) == [Fr(c) for c in b2]


def test_integer_rank_is_exact():
    # float division got rank 3 here
    assert mat_rank([(3, 1, 1), (1, 2, 0), (4, 3, 1)]) == 2


def test_rational_edge_cases():
    assert mat_det([]) == 1
    assert mat_rank([]) == 0
    assert mat_rank([[]]) == 0
    assert nullspace_basis([]) == []
    assert solve_linear([], [0]) == []
    assert solve_linear([], [1]) is None
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_linear([[1, 1], [2, 2]], [1, 2]) == [1, 0]
    assert nullspace_basis([[1, 1]]) == [(-1, 1)]


# ---------------------------------------------------------------------------
# Novikov field

SEEDS = range(12)


def random_matrix(rng, field, m, n, zero_share=0.3):
    gamma = PeriodGroup(Fr(1, rng.randrange(1, 4)))
    return [[NovikovScalar.zero(field) if rng.random() < zero_share
             else _random_scalar(rng, field, gamma) for _ in range(n)] for _ in range(m)]


def corpus_matrices(seed):
    """A square random matrix, a rank-deficient differential and its I + d."""
    rng = random.Random(seed)
    field = (QMODEL, F2)[seed % 2]
    n = rng.randrange(2, 5)
    d = random_decorated_complex(rng, field, dim=n).diff_matrix()
    unipotent = [list(row) for row in d]
    for i in range(n):
        unipotent[i][i] = unipotent[i][i] + NovikovScalar.one(field)
    return field, random_matrix(rng, field, n, n), d, unipotent


@pytest.mark.parametrize("seed", SEEDS)
def test_novikov_solve_and_nullspace(seed):
    field, g, d, u = corpus_matrices(seed)
    rng = random.Random(1000 + seed)
    tall = d + g[:1]
    for a in (g, d, u, tall):
        n = len(a[0])
        x0 = random_matrix(rng, field, 1, n)[0]
        b = la.mat_vec(a, x0)
        x = la.solve(a, b)
        assert la.mat_vec(a, x) == b
        kernel = la.nullspace(a)
        assert la.rank(a) + len(kernel) == n
        for v in kernel:
            assert all(y.is_zero() for y in la.mat_vec(a, v))
        if kernel:
            assert la.rank(kernel) == len(kernel)


@pytest.mark.parametrize("seed", SEEDS)
def test_novikov_inverse_and_det(seed):
    field, g, d, u = corpus_matrices(seed)
    n = len(g)
    one, zero = NovikovScalar.one(field), NovikovScalar.zero(field)
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for a in (g, u):
        inv = la.inverse(a)
        if la.det(a).is_zero():
            assert inv is None
            continue
        assert la.mat_mul(a, inv) == ident
        assert la.mat_mul(inv, a) == ident
    assert la.inverse(d) is None
    assert la.det(d).is_zero()
    assert la.det(u) == one
    assert la.det(la.mat_mul(g, u)) == la.det(g) * la.det(u)
    assert la.det(la.mat_mul(g, g)) == la.det(g) * la.det(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_novikov_values_do_not_depend_on_pivot_rule(seed):
    field, g, d, _ = corpus_matrices(seed)
    first_nonzero = la._NOVIKOV[field]._replace(pivot_key=None)
    b = [row[0] for row in g]
    for a in (g, d):
        x = la.solve(a, b)
        assert la._solve(first_nonzero, a, [[y] for y in b]) == (
            None if x is None else [[y] for y in x])
        assert la._nullspace(first_nonzero, a) == la.nullspace(a)
        assert la._det(first_nonzero, a) == la.det(a)


def test_novikov_edge_cases():
    with pytest.raises(ValueError):
        la.det([])
    assert la.rank([]) == 0
    assert la.rank([[]]) == 0
    assert la.nullspace([]) == []
    one, zero = NovikovScalar.one(QMODEL), NovikovScalar.zero(QMODEL)
    singular = [[one, one], [one, one]]
    assert la.inverse(singular) is None
    assert la.solve(singular, [one, zero]) is None
    assert la.solve(singular, [one, one]) == [one, zero]
    assert la.solve([], [zero]) == []
    assert la.solve([], [one]) is None
