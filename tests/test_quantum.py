import random
from fractions import Fraction as Fr

import pytest

import rigidkit.linalg as la
import rigidkit.quantum as qm
from rigidkit.novikov import F2, QMODEL, LambdaElement, NovikovScalar, PeriodGroup
from rigidkit.quantum import (
    AlgebraError,
    GradedBasis,
    QHElement,
    QuantumAlgebra,
    albers_check,
    builtin_algebra,
    divide,
    frobenius,
    frobenius_gram,
    is_idempotent,
    is_semisimple,
    kunneth,
    projective_space,
    qprod,
    quadric_idempotents,
    quadric_surface,
    quadric_w,
    semisimplicity_obstruction,
    sphere,
    tables_equal,
    torus_classical,
)


@pytest.fixture(scope="module")
def quadric():
    return quadric_surface(Fr(1, 2))


def test_builtin_axioms():
    for name in ("cpn1-f2", "cpn2-f2", "cpn3-f2", "cpn4-f2", "cpn2-q",
                 "s2", "quadric", "t2"):
        assert builtin_algebra(name).check_axioms() == []


def test_unity_acts_trivially(quadric):
    for i in range(quadric.rank):
        b = quadric.basis_element(i)
        assert qprod(quadric, quadric.unity(), b) == b


def test_cp1_point_squared():
    # pt * pt = s^{-2 kappa} q^{-2} [M]
    kappa = Fr(1, 2)
    cp1 = sphere(kappa)
    pp = qprod(cp1, cp1.point(), cp1.point())
    expect = cp1.basis_element(0, -2, NovikovScalar.monomial(QMODEL, 1, -2 * kappa))
    assert pp == expect


def test_quadric_products(quadric):
    a = quadric.basis_element(1)
    b = quadric.basis_element(2)
    assert qprod(quadric, a, b) == quadric.point()
    w = quadric_w(quadric)
    # A*A = w^{-1}[M] checked by clearing the w factor
    assert qprod(quadric, a, a).scale(w) == quadric.unity()
    # pt*pt = w^{-2}[M]
    pp = qprod(quadric, quadric.point(), quadric.point())
    assert pp.scale(w * w) == quadric.unity()


def test_quadric_idempotent_pair(quadric):
    ap, am = quadric_idempotents(quadric)
    assert is_idempotent(quadric, ap)
    assert is_idempotent(quadric, am)
    assert qprod(quadric, ap, am).is_zero()
    assert ap + am == quadric.unity()
    assert is_idempotent(quadric, ap + am)
    assert is_idempotent(quadric, quadric.unity())


def test_divide_quadric(quadric):
    a = quadric.basis_element(1)
    b = quadric.basis_element(2)
    _, am = quadric_idempotents(quadric)
    x = divide(quadric, b - a, am)
    assert x is not None
    assert qprod(quadric, b - a, x) == am


def test_divide_unity_and_zero_divisor(quadric):
    _, am = quadric_idempotents(quadric)
    assert divide(quadric, quadric.unity(), am) == am
    # toy Q[x]/(x^2): dividing 1 by the nilpotent has no solution
    toy = torus_like_toy()
    x = toy.basis_element(1, 1)
    assert divide(toy, x, toy.unity()) is None


def test_qprod_accepts_equal_distinct_algebras(quadric):
    other = quadric_surface(Fr(1, 2))
    assert other is not quadric and other == quadric
    a, b = other.basis_element(1), other.basis_element(2)
    assert qprod(quadric, a, b) == quadric.point()
    with pytest.raises(AlgebraError):
        qprod(quadric, sphere().unity(), b)


def test_qprod_same_algebra_skips_value_comparison(quadric, monkeypatch):
    calls = []

    def counting_eq(self, other):
        calls.append(other)
        return True

    a, b = quadric.basis_element(1), quadric.basis_element(2)
    monkeypatch.setattr(QuantumAlgebra, "__eq__", counting_eq)
    qprod(quadric, a, b)
    assert calls == []


def torus_like_toy():
    basis = GradedBasis(("one", "x"), (2, 0), 2, 0, 1)
    return QuantumAlgebra(QMODEL, basis, PeriodGroup.trivial(),
                          {(0, 0): {0: LambdaElement.one(QMODEL)},
                           (0, 1): {1: LambdaElement.one(QMODEL)},
                           (1, 1): {}})


class TestFrobenius:
    def test_unity_pairs_with_point(self, quadric):
        assert frobenius(quadric, quadric.unity(), quadric.point()) == 1

    def test_quadric_ab(self, quadric):
        a = quadric.basis_element(1)
        b = quadric.basis_element(2)
        assert frobenius(quadric, a, b) == 1

    def test_symmetry_and_frobenius_identity(self, quadric):
        rng = random.Random(9)

        def rand_elem():
            coeffs = {}
            for i in range(quadric.rank):
                if rng.random() < 0.6:
                    coeffs[i] = LambdaElement.q_power(
                        QMODEL, rng.randrange(-2, 3),
                        NovikovScalar.monomial(QMODEL, Fr(rng.randrange(-3, 4)),
                                               rng.randrange(-1, 2)))
            return QHElement(quadric, coeffs)

        for _ in range(25):
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert frobenius(quadric, x, y) == frobenius(quadric, y, x)
            lhs = frobenius(quadric, qprod(quadric, x, y), z)
            rhs = frobenius(quadric, x, qprod(quadric, y, z))
            assert lhs == rhs

    def test_gram_full_rank_on_builtins(self):
        for name in ("cpn1-f2", "cpn3-f2", "cpn2-q", "quadric", "s2"):
            alg = builtin_algebra(name)
            assert la.rank(frobenius_gram(alg)) == alg.rank


class TestSemisimplicity:
    def test_cpn_f2_fields(self):
        for n in range(1, 5):
            res = is_semisimple(projective_space(n, F2))
            assert res.verdict == "semisimple"
            assert "irreducible" in res.reason

    def test_quadric_trace_form(self, quadric):
        res = is_semisimple(quadric)
        assert res.verdict == "semisimple"
        assert "trace form" in res.reason

    def test_quadric_decomposition_certificate(self, quadric):
        ap, am = quadric_idempotents(quadric)
        # the two summands have rank 2 each and certified field presentations
        # do not exist over Q via this route; the quadric over Q is decided
        # by the trace form, so here we only check the verification path on
        # an F2 example with a rank-one split
        res = is_semisimple(quadric)
        assert res.verdict == "semisimple"

    def test_nilpotent_toy(self):
        toy = torus_like_toy()
        res = is_semisimple(toy)
        assert res.verdict == "not_semisimple"
        w = res.witness
        assert w is not None and qprod(toy, w, w).is_zero()

    def test_torus_classical(self):
        res = is_semisimple(builtin_algebra("t2"))
        assert res.verdict == "not_semisimple"

    def test_f2_without_certificate_is_inconclusive(self):
        # a direct sum K + K over GF(2): no monomial presentation from a
        # basis vector, honest answer without a supplied decomposition
        basis = GradedBasis(("one", "e"), (2, 0), 2, 0, 1)
        one = LambdaElement.one(F2)
        alg = QuantumAlgebra(F2, basis, PeriodGroup(1),
                             {(0, 0): {0: one}, (0, 1): {1: one},
                              (1, 1): {0: LambdaElement.q_power(F2, -2)}})
        # e*e = q^{-2}*[M]: (e q)^2 = [M]: X^2 - 1 reducible, inconclusive
        res = is_semisimple(alg)
        assert res.verdict == "inconclusive"

    def test_f2_decomposition_route(self):
        # same algebra: X = e q satisfies X^2 = 1, idempotents (1+X)/... do
        # not exist over GF(2) (char 2), so supply a wrong decomposition and
        # check it is rejected rather than trusted
        basis = GradedBasis(("one", "e"), (2, 0), 2, 0, 1)
        one = LambdaElement.one(F2)
        alg = QuantumAlgebra(F2, basis, PeriodGroup(1),
                             {(0, 0): {0: one}, (0, 1): {1: one},
                              (1, 1): {0: LambdaElement.q_power(F2, -2)}})
        res = is_semisimple(alg, decomposition=[alg.unity(), alg.unity()])
        assert res.verdict == "inconclusive"

    def test_f2_decomposition_into_fields(self):
        # K + K over GF(2) (X = e q with X^2 = X) tensored with CP^n: the
        # summands X*CP^n and (1 + X)*CP^n have rank n + 1, and each is a
        # field by the presentation Y^{n+1} = s^{-(n+1)} searched in its span
        basis = GradedBasis(("one", "e"), (2, 0), 2, 0, 1)
        one = LambdaElement.one(F2)
        split = QuantumAlgebra(F2, basis, PeriodGroup.trivial(),
                               {(0, 0): {0: one}, (0, 1): {1: one},
                                (1, 1): {1: LambdaElement.q_power(F2, -1)}})
        for n in (1, 2, 3):
            alg = kunneth(split, projective_space(n, F2))
            x = alg.basis_element(alg.basis.index_of("ex[M]"), 1)
            res = is_semisimple(alg, decomposition=[x, alg.unity() + x])
            assert res.verdict == "semisimple", res.reason
            assert "decomposition" in res.reason


class TestKunneth:
    def test_unity_and_point(self):
        s = sphere()
        prod = kunneth(s, s)
        assert prod.basis.labels[prod.basis.unity_index] == "[M]x[M]"
        assert prod.basis.degrees[prod.basis.point_index] == 0
        u = prod.unity()
        for i in range(prod.rank):
            b = prod.basis_element(i)
            assert qprod(prod, u, b) == b

    def test_matches_builtin_quadric(self, quadric):
        prod = kunneth(sphere(), sphere())
        assert tables_equal(prod, quadric, {0: 0, 1: 1, 2: 2, 3: 3})
        assert prod.gamma == quadric.gamma
        assert prod.check_axioms() == []

    def test_gamma_sum(self):
        a = sphere(Fr(1, 2))
        b = sphere(Fr(1, 3))
        prod = kunneth(a, b)
        assert prod.gamma == PeriodGroup(Fr(1, 3))
        assert prod.kappa is None  # mismatched monotonicity constants

    def test_field_mismatch(self):
        with pytest.raises(Exception):
            kunneth(sphere(), projective_space(1, F2))


class TestDegreeCounts:
    def test_albers_rpn(self):
        for n in range(2, 7):
            assert albers_check(n, n + 1, 2)

    def test_albers_aspherical_point_class(self):
        assert albers_check(5, None, 0)

    def test_albers_hypersurface(self):
        # degree-d hypersurface, point class: holds exactly when n > 2d-3
        for d in (2, 3, 4):
            for n in range(2, 12):
                if 2 * (n + 2 - d) < 2:
                    continue
                expected = n > 2 * d - 3
                assert albers_check(n, 2 * (n + 2 - d), 0) == expected

    def test_albers_precondition(self):
        with pytest.raises(ValueError):
            albers_check(2, 1, 0)

    def test_obstruction(self):
        assert semisimplicity_obstruction(3, 1)
        assert not semisimplicity_obstruction(2, 1)
        assert not semisimplicity_obstruction(1, 5)
        with pytest.raises(ValueError):
            semisimplicity_obstruction(0, 1)


def test_grading_rule_on_all_tables():
    for name in ("cpn1-f2", "cpn4-f2", "quadric", "t2"):
        alg = builtin_algebra(name)
        n2 = alg.basis.dimension_2n
        for (i, j), entry in alg.table.items():
            want = alg.basis.degrees[i] + alg.basis.degrees[j] - n2
            for k, lam in entry.items():
                for qp in lam.q_powers():
                    assert alg.basis.degrees[k] + 2 * qp == want


def test_element_degree():
    qd = quadric_surface()
    hom = qd.basis_element(1, 1)  # A q: degree 4
    assert hom.degree() == 4
    mixed = hom + qd.point()
    assert mixed.degree() is None


# ---------------------------------------------------------------------------
# the cached slice table against the constructions it replaced

RATIONAL_BUILTINS = ("cpn1-q", "cpn2-q", "cpn3-q", "cpn4-q", "s2", "quadric")


def rational_algebras():
    """The rational built-ins and their Kunneth products up to rank 12."""
    algs = [builtin_algebra(n) for n in RATIONAL_BUILTINS]
    prods = [kunneth(a, b) for i, a in enumerate(algs) for b in algs[i:]
             if a.rank * b.rank <= 12]
    return algs + prods


def slice_basis(alg):
    """The slice basis b_i q^{r_i} as algebra elements."""
    zero, one = NovikovScalar.zero(alg.field), NovikovScalar.one(alg.field)
    return [alg.from_top_slice([one if t == i else zero for t in range(alg.rank)],
                               alg.basis.dimension_2n) for i in range(alg.rank)]


def trace_form_oracle(alg):
    """tr L_{e_i e_j} as the diagonal sum of the multiplication matrix of
    each slice product e_i e_j."""
    els = slice_basis(alg)
    gram = []
    for ei in els:
        row = []
        for ej in els:
            mm = alg.multiplication_matrix(alg.to_top_slice(qprod(alg, ei, ej)))
            tr = NovikovScalar.zero(alg.field)
            for t in range(alg.rank):
                tr = tr + mm[t][t]
            row.append(tr)
        gram.append(row)
    return gram


def associativity_oracle(alg):
    """The r^3 loop that recomputes the inner product of every triple."""
    bad = []
    labels = alg.basis.labels
    els = [alg.basis_element(i) for i in range(alg.rank)]
    for i in range(alg.rank):
        for j in range(alg.rank):
            ij = qprod(alg, els[i], els[j])
            for k in range(alg.rank):
                if qprod(alg, ij, els[k]) != qprod(alg, els[i], qprod(alg, els[j], els[k])):
                    bad.append(f"associativity fails on ({labels[i]},{labels[j]},{labels[k]})")
    return bad


def gram_oracle(alg):
    """The q^0 point coefficient of qprod(b_i, b_j), one product per entry."""
    els = [alg.basis_element(i) for i in range(alg.rank)]
    zero = LambdaElement.zero(alg.field)
    return [[qprod(alg, x, y).coeffs.get(alg.basis.point_index, zero).coefficient(0)
             for y in els] for x in els]


def corrupt(alg, rng):
    """A copy of alg with 1-3 table cells changed: a term scaled, a second
    term added, or a term moved to another class (often the point class,
    so that the Gram matrix changes too)."""
    table = {key: dict(entry) for key, entry in alg.table.items()}
    s = NovikovScalar.monomial(alg.field, 1 if alg.field == F2 else rng.choice([2, -3]),
                               rng.choice([0, alg.gamma.generator, Fr(1, 7)]))
    for _ in range(rng.randint(1, 3)):
        entry = table[rng.choice([key for key in sorted(table) if table[key]])]
        k, mode = rng.choice(sorted(entry)), rng.choice(["scale", "add", "move"])
        if mode == "scale":
            entry[k] = entry[k].scale(s)
            continue
        lam = entry.pop(k) if mode == "move" else LambdaElement.q_power(
            alg.field, rng.choice([0, 0, -1, 1]), s)
        k = rng.choice([alg.basis.point_index, rng.randrange(alg.rank)])
        entry[k] = entry[k] + lam if k in entry else lam
    return QuantumAlgebra(alg.field, alg.basis, alg.gamma, table, alg.kappa)


class TestSliceTable:
    def test_built_once(self):
        alg = kunneth(builtin_algebra("cpn1-q"), builtin_algebra("cpn2-q"))
        consts = alg.top_slice_constants()
        assert alg.top_slice_constants() is consts
        assert alg.multiplication_matrix(alg.to_top_slice(alg.unity())) == la.identity(
            alg.field, alg.rank)
        assert alg.top_slice_constants() is consts

    def test_constants_are_slice_products(self):
        for alg in rational_algebras()[:8] + [builtin_algebra("cpn3-f2"), builtin_algebra("t2")]:
            consts = alg.top_slice_constants()
            els = slice_basis(alg)
            for i in range(alg.rank):
                for j in range(alg.rank):
                    coords = alg.to_top_slice(qprod(alg, els[i], els[j]))
                    assert consts[i][j] == {k: c for k, c in enumerate(coords) if not c.is_zero()}

    def test_trace_form_matches_oracle(self):
        algs = rational_algebras()
        assert max(a.rank for a in algs) == 12
        for alg in algs:
            assert qm._trace_form(alg) == trace_form_oracle(alg), alg.name

    def test_associativity_matches_oracle(self):
        cpn2 = builtin_algebra("cpn2-q")
        two = NovikovScalar.constant(QMODEL, 2)
        table = dict(cpn2.table)
        table[(1, 1)] = {k: lam.scale(two) for k, lam in table[(1, 1)].items()}
        broken = QuantumAlgebra(QMODEL, cpn2.basis, cpn2.gamma, table, cpn2.kappa)
        assert associativity_oracle(broken)
        for alg in (cpn2, broken, builtin_algebra("quadric"), builtin_algebra("cpn3-f2"),
                    kunneth(builtin_algebra("s2"), builtin_algebra("cpn2-q"))):
            assert alg.check_axioms() == alg.check_axioms(deep=False) + associativity_oracle(alg)

    @pytest.mark.parametrize("names", [("cpn2-q", "cpn2-q"), ("cpn2-f2", "cpn3-f2")])
    def test_broken_tables_match_the_oracles(self, names):
        alg = kunneth(*(builtin_algebra(n) for n in names))
        assert alg.rank >= 9
        rng = random.Random("/".join(names))
        broken = [corrupt(alg, rng) for _ in range(4)]
        assert any(associativity_oracle(b) for b in broken)
        assert any(gram_oracle(b) != gram_oracle(alg) for b in broken)
        for b in (alg, *broken):
            assert b.check_axioms() == b.check_axioms(deep=False) + associativity_oracle(b)
            assert frobenius_gram(b) == gram_oracle(b)
