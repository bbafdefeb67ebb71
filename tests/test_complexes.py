import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidkit.linalg as la
from rigidkit.complexes import (
    ChainElement,
    ComplexError,
    DecoratedComplex,
    HomologyClass,
    NotGenericError,
    SpectralBasis,
    canonical_representative,
    class_of_cycle,
    dominant,
    filter_value,
    homology_rank,
    in_general_position,
    is_generic,
    is_normalized,
    make_generic,
    make_generic_pair,
    normal_basis,
    perturb_filter,
    rescale_basis_vector,
    spectral_basis,
    spectral_invariant,
    spectral_invariant_of_cycle,
    spectral_invariant_interval,
    tensor,
    tensor_element,
    validate,
    verify_product_formula,
)
from rigidkit.corpus import (
    random_cycle_representative,
    random_decorated_complex,
    random_general_position_pair,
    random_homology_class,
)
from rigidkit.novikov import NEG_INF, F2, QMODEL, NovikovScalar, PeriodGroup


def mono(e, c=1, field=QMODEL):
    return NovikovScalar.monomial(field, c, e)


def two_element_complex(f1=Fr(1, 2), f0=Fr(0), exp=-1):
    # d x2 = s^exp x1
    return DecoratedComplex(QMODEL, PeriodGroup(1), ["x1", "x2"], [0, 1],
                            [f1, f0], [{}, {0: mono(exp)}])


def zero_d_complex(filters, gamma=PeriodGroup(1), parities=None):
    n = len(filters)
    parities = parities or [i % 2 for i in range(n)]
    return DecoratedComplex(QMODEL, gamma, [f"x{i}" for i in range(n)],
                            parities, filters, [{} for _ in range(n)])


class TestValidate:
    def test_zero_differential_ok(self):
        assert validate(zero_d_complex([0, Fr(1, 2), Fr(1, 3)])) == []

    def test_filter_extension_example(self):
        v = two_element_complex()
        assert validate(v) == []
        dx = v.d(v.basis_vector(1))
        assert filter_value(v, dx) == Fr(-1, 2)

    def test_violation_reported_with_vector(self):
        with pytest.raises(ComplexError, match="x2"):
            two_element_complex(f1=Fr(2))

    def test_parity_and_square(self):
        with pytest.raises(ComplexError, match="parity"):
            DecoratedComplex(QMODEL, PeriodGroup(1), ["a", "b"], [0, 0],
                             [1, 0], [{}, {0: mono(-2)}])

    def test_d_squared(self):
        # a -> b -> c with both arrows nonzero breaks d^2 = 0
        with pytest.raises(ComplexError, match="d\\^2"):
            DecoratedComplex(QMODEL, PeriodGroup(1), ["a", "b", "c"], [0, 1, 0],
                             [0, 5, 10],
                             [{}, {0: mono(-6)}, {1: mono(-6)}])


class TestFilterValue:
    def test_basis_vector(self):
        v = zero_d_complex([0, Fr(1, 2)])
        assert filter_value(v, v.basis_vector(1)) == Fr(1, 2)

    def test_max_rule(self):
        v = zero_d_complex([0, 1])
        x = v.basis_vector(0).scale(mono(2)) + v.basis_vector(1)
        assert filter_value(v, x) == 2

    def test_zero(self):
        v = zero_d_complex([0, 1])
        assert filter_value(v, ChainElement({})) == NEG_INF


class TestGenericity:
    def test_examples(self):
        assert is_generic(zero_d_complex([0, Fr(1, 2)]))
        assert not is_generic(zero_d_complex([0, 1]))
        assert is_generic(zero_d_complex([0, Fr(1, 7), Fr(2, 9)],
                                         gamma=PeriodGroup.trivial()))

    def test_dominant(self):
        v = zero_d_complex([0, 1], gamma=PeriodGroup(3))
        x = v.basis_vector(0).scale(mono(2)) + v.basis_vector(1)
        p, lam = dominant(v, x)
        assert p == 0 and lam == mono(2)
        assert dominant(v, v.basis_vector(1)) == (1, NovikovScalar.one(QMODEL))

    def test_dominant_tie_errors(self):
        v = zero_d_complex([0, 1])  # difference 1 in Z: not generic
        x = v.basis_vector(0).scale(mono(1)) + v.basis_vector(1)
        with pytest.raises(NotGenericError):
            dominant(v, x)

    def test_dominant_zero(self):
        v = zero_d_complex([0, Fr(1, 2)])
        with pytest.raises(ComplexError):
            dominant(v, ChainElement({}))


class TestNormalBasis:
    def test_single_vector(self):
        v = zero_d_complex([0, Fr(1, 2)])
        nb = normal_basis(v, [v.basis_vector(0)])
        assert nb == [v.basis_vector(0)]

    def test_span_preserved_with_distinct_dominants(self):
        v = zero_d_complex([0, Fr(1, 2)])
        w1 = v.basis_vector(0) + v.basis_vector(1).scale(mono(1))
        w2 = v.basis_vector(1)
        nb = normal_basis(v, [w1, w2])
        doms = {dominant(v, e)[0] for e in nb}
        assert doms == {0, 1}
        for e in nb:
            assert is_normalized(v, e)
        # equal span: exact row-reduction oracle
        assert _same_span(v, [w1, w2], nb)

    def test_whole_space_random(self):
        rng = random.Random(2)
        for _ in range(10):
            v = random_decorated_complex(rng, QMODEL, max_dim=6)
            vecs = [v.basis_vector(i) for i in range(v.dim)]
            rng.shuffle(vecs)
            mixed = [vecs[i] + (vecs[(i + 1) % len(vecs)].scale(mono(-3))
                                if rng.random() < 0.5 else ChainElement({}))
                     for i in range(len(vecs))]
            nb = normal_basis(v, mixed)
            doms = [dominant(v, e)[0] for e in nb]
            assert len(set(doms)) == len(nb)
            assert _same_span(v, mixed, nb)
            # normal systems are linearly independent
            assert _rank_of(v, nb) == len(nb)

    def test_dependent_inputs_reduced(self):
        v = zero_d_complex([0, Fr(1, 2)])
        w = v.basis_vector(0)
        nb = normal_basis(v, [w, w.scale(mono(1))])
        assert len(nb) == 1

    def test_lemma_max_property(self):
        # F(sum lambda_i e_i) = max F(lambda_i e_i) for normal systems
        rng = random.Random(8)
        for _ in range(20):
            v = random_decorated_complex(rng, QMODEL, max_dim=6)
            vecs = [v.basis_vector(i) for i in range(v.dim)]
            nb = normal_basis(v, vecs)
            lams = [mono(Fr(rng.randrange(-6, 7)), Fr(rng.randrange(1, 5)))
                    for _ in nb]
            total = ChainElement({})
            for lam, e in zip(lams, nb):
                total = total + e.scale(lam)
            if total.is_zero():
                continue
            expect = max(lam.valuation() + filter_value(v, e)
                         for lam, e in zip(lams, nb))
            assert filter_value(v, total) == expect


def _matrix_of(v, vectors):
    zero = NovikovScalar.zero(v.field)
    return [[vec.coeffs.get(i, zero) for vec in vectors] for i in range(v.dim)]


def _rank_of(v, vectors):
    return la.rank(_matrix_of(v, vectors))


def _same_span(v, vecs_a, vecs_b):
    ra = _rank_of(v, vecs_a)
    rb = _rank_of(v, vecs_b)
    rab = _rank_of(v, list(vecs_a) + list(vecs_b))
    return ra == rb == rab


class TestSpectralBasis:
    def test_zero_differential(self):
        v = zero_d_complex([0, Fr(1, 2), Fr(1, 3)])
        sb = spectral_basis(v)
        assert (sb.p, sb.q) == (3, 0)
        # h's are the preferred basis up to normalization
        doms = sorted(dominant(v, h)[0] for h in sb.h_part)
        assert doms == [0, 1, 2]

    def test_acyclic(self):
        v = two_element_complex()
        sb = spectral_basis(v)
        assert (sb.p, sb.q) == (0, 1)

    def test_counts_against_rank_oracle(self):
        rng = random.Random(4)
        for _ in range(15):
            v = random_decorated_complex(rng, QMODEL, dim=6)
            sb = spectral_basis(v)
            r = la.rank(v.diff_matrix())
            assert sb.q == r
            assert sb.p == v.dim - 2 * r
            assert v.dim == sb.p + 2 * sb.q
            assert len(sb.x_part) == sb.q
            for g in sb.g_part:
                assert v.d(g).is_zero()
            for h in sb.h_part:
                assert v.d(h).is_zero()

    def test_requires_generic(self):
        v = zero_d_complex([0, 1])
        with pytest.raises(NotGenericError):
            spectral_basis(v)


class TestSpectralInvariant:
    def test_zero_differential_values(self):
        filters = [0, Fr(1, 2), Fr(1, 3)]
        v = zero_d_complex(filters)
        sb = spectral_basis(v)
        for h in sb.h_part:
            i = dominant(v, h)[0]
            a = class_of_cycle(v, sb, h)
            assert spectral_invariant(v, sb, a) == filters[i]

    def test_zero_class(self):
        v = zero_d_complex([0, Fr(1, 2)])
        sb = spectral_basis(v)
        zero = HomologyClass(tuple(NovikovScalar.zero(QMODEL) for _ in range(sb.p)))
        assert spectral_invariant(v, sb, zero) == NEG_INF

    def test_representative_minimization_oracle(self):
        rng = random.Random(10)
        done = 0
        while done < 6:
            v = random_decorated_complex(rng, QMODEL, dim=6)
            sb = spectral_basis(v)
            if sb.p == 0 or sb.q == 0:
                continue
            a, _ = random_homology_class(rng, v, sb)
            c = spectral_invariant(v, sb, a)
            rep0 = canonical_representative(v, sb, a)
            assert filter_value(v, rep0) == c
            for _ in range(50):
                rep = random_cycle_representative(rng, v, sb, a)
                assert v.d(rep).is_zero()
                assert class_of_cycle(v, sb, rep).coeffs == a.coeffs
                assert filter_value(v, rep) >= c
            done += 1

    def test_shuffle_invariance(self):
        rng = random.Random(12)
        for _ in range(5):
            v = random_decorated_complex(rng, QMODEL, max_dim=6)
            sb = spectral_basis(v)
            if sb.p == 0:
                continue
            a, _ = random_homology_class(rng, v, sb)
            cyc = canonical_representative(v, sb, a)
            vals = set()
            for _ in range(5):
                order = list(range(v.dim))
                rng.shuffle(order)
                vals.add(spectral_invariant_of_cycle(v, cyc, order))
            assert len(vals) == 1

    def test_characteristic_exponent(self):
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            v = random_decorated_complex(rng, QMODEL, max_dim=6)
            sb = spectral_basis(v)
            if sb.p < 2:
                continue
            a, _ = random_homology_class(rng, v, sb)
            b, _ = random_homology_class(rng, v, sb)
            ab = HomologyClass(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
            ca = spectral_invariant(v, sb, a)
            cb = spectral_invariant(v, sb, b)
            assert spectral_invariant(v, sb, ab) <= max(ca, cb)
            checked += 1

    def test_rescaling_invariance(self):
        rng = random.Random(14)
        done = 0
        while done < 8:
            v = random_decorated_complex(rng, QMODEL, max_dim=5)
            sb = spectral_basis(v)
            if sb.p == 0:
                continue
            a, _ = random_homology_class(rng, v, sb)
            cyc = canonical_representative(v, sb, a)
            i = rng.randrange(v.dim)
            alpha = v.gamma.generator * rng.randrange(-3, 4)
            w = rescale_basis_vector(v, i, alpha)
            # identification: coefficient of x_i picks up s^{-alpha}
            coeffs = dict(cyc.coeffs)
            if i in coeffs:
                coeffs[i] = coeffs[i] * mono(-alpha)
            cyc_w = ChainElement(coeffs)
            assert spectral_invariant_of_cycle(w, cyc_w) == \
                spectral_invariant_of_cycle(v, cyc)
            done += 1


class TestTensor:
    def test_unit_complex_is_neutral(self):
        v = zero_d_complex([0, Fr(1, 2), Fr(1, 3)])
        unit = DecoratedComplex(QMODEL, PeriodGroup.trivial(), ["u"], [0], [0], [{}])
        prod = tensor(v, unit)
        assert prod.dim == v.dim
        assert prod.filters == v.filters
        assert prod.parities == v.parities

    def test_filters_additive(self):
        rng = random.Random(15)
        v1 = random_decorated_complex(rng, QMODEL, dim=4)
        v2 = random_decorated_complex(rng, QMODEL, dim=3)
        prod = tensor(v1, v2)
        for i in range(v1.dim):
            for j in range(v2.dim):
                assert prod.filters[i * v2.dim + j] == v1.filters[i] + v2.filters[j]
                assert prod.parities[i * v2.dim + j] == (v1.parities[i] + v2.parities[j]) % 2

    def test_d_squared_on_random_products(self):
        rng = random.Random(16)
        for _ in range(100):
            v1 = random_decorated_complex(rng, QMODEL, max_dim=5)
            v2 = random_decorated_complex(rng, QMODEL, max_dim=5)
            assert validate(tensor(v1, v2)) == []

    def test_f2_tensor(self):
        rng = random.Random(17)
        v1 = random_decorated_complex(rng, F2, dim=4)
        v2 = random_decorated_complex(rng, F2, dim=4)
        assert validate(tensor(v1, v2)) == []

    def test_kunneth_dimension(self):
        rng = random.Random(18)
        for _ in range(10):
            v1, v2 = random_general_position_pair(rng, QMODEL, max_dim=6)
            prod = tensor(v1, v2)
            assert homology_rank(prod) == homology_rank(v1) * homology_rank(v2)


class TestProductFormula:
    def test_zero_differentials(self):
        v1 = zero_d_complex([Fr(1, 7), Fr(2, 7)])
        v2 = zero_d_complex([Fr(1, 5), Fr(4, 9)], gamma=PeriodGroup(Fr(1, 3)))
        assert in_general_position(v1, v2)
        sb1, sb2 = spectral_basis(v1), spectral_basis(v2)
        one = NovikovScalar.one(QMODEL)
        zero = NovikovScalar.zero(QMODEL)
        a1 = HomologyClass((one, zero))
        a2 = HomologyClass((zero, one))
        rep = verify_product_formula(v1, v2, a1, a2, sb1, sb2)
        assert rep["equal"]
        assert rep["lhs"] == rep["c1"] + rep["c2"]

    def test_random_pairs_exact(self):
        rng = random.Random(19)
        done = 0
        while done < 30:
            v1, v2 = random_general_position_pair(rng, QMODEL)
            a1, sb1 = random_homology_class(rng, v1)
            a2, sb2 = random_homology_class(rng, v2)
            if a1 is None or a2 is None:
                continue
            rep = verify_product_formula(v1, v2, a1, a2, sb1, sb2)
            assert rep["equal"], rep
            done += 1

    def test_rejects_non_generic(self):
        v1 = zero_d_complex([0, 1])
        v2 = zero_d_complex([Fr(1, 5), Fr(4, 9)])
        one = NovikovScalar.one(QMODEL)
        zero = NovikovScalar.zero(QMODEL)
        a = HomologyClass((one, zero))
        with pytest.raises(NotGenericError, match="make_generic"):
            verify_product_formula(v1, v2, a, a)

    def test_perturbed_route_within_4eps(self):
        # non-generic pair routed through the joint perturbation: the
        # perturbed product formula is exact and each invariant moves by at
        # most eps, so the defect of the original data is at most 4 eps
        rng = random.Random(20)
        eps = Fr(1, 40)
        done = 0
        while done < 5:
            v1 = random_decorated_complex(rng, QMODEL, max_dim=4, gamma_denominator=2)
            v2 = random_decorated_complex(rng, QMODEL, max_dim=4, gamma_denominator=2)
            if in_general_position(v1, v2):
                continue
            w1, w2 = make_generic_pair(v1, v2, eps)
            for orig, pert in ((v1, w1), (v2, w2)):
                assert max(abs(a - b) for a, b in zip(orig.filters, pert.filters)) <= eps
            a1, sb1 = random_homology_class(rng, w1)
            a2, sb2 = random_homology_class(rng, w2)
            if a1 is None or a2 is None:
                continue
            rep = verify_product_formula(w1, w2, a1, a2, sb1, sb2)
            assert rep["equal"]
            assert abs(rep["lhs"] - rep["rhs"]) <= 4 * eps
            done += 1


class TestPerturbations:
    def _complex_and_class(self, rng):
        while True:
            v = random_decorated_complex(rng, QMODEL, max_dim=6)
            sb = spectral_basis(v)
            if sb.p > 0:
                a, _ = random_homology_class(rng, v, sb)
                return v, sb, a

    def test_constant_shift(self):
        rng = random.Random(21)
        for _ in range(10):
            v, sb, a = self._complex_and_class(rng)
            cyc = canonical_representative(v, sb, a)
            c0 = spectral_invariant(v, sb, a)
            theta = Fr(3)
            w = perturb_filter(v, theta)
            assert spectral_invariant_of_cycle(w, cyc) == c0 + theta

    def test_identity_perturbation(self):
        rng = random.Random(22)
        v, sb, a = self._complex_and_class(rng)
        w = perturb_filter(v, 0)
        cyc = canonical_representative(v, sb, a)
        assert spectral_invariant_of_cycle(w, cyc) == spectral_invariant(v, sb, a)

    def test_monotone_and_lipschitz(self):
        rng = random.Random(23)
        done = 0
        while done < 10:
            v, sb, a = self._complex_and_class(rng)
            cyc = canonical_representative(v, sb, a)
            c0 = spectral_invariant(v, sb, a)
            delta = {i: Fr(rng.randrange(0, 2), 10) for i in range(v.dim)}
            try:
                w = perturb_filter(v, delta)
            except ComplexError:
                continue
            c1 = spectral_invariant_of_cycle(w, cyc)
            assert c1 >= c0
            assert abs(c1 - c0) <= max(delta.values())
            done += 1

    def test_decrease_violation_raises(self):
        v = two_element_complex(f1=Fr(1, 2), f0=0, exp=-1)
        # pushing x1 up by 1 makes F(dx2) = 1/2 >= F(x2) = 0
        with pytest.raises(ComplexError):
            perturb_filter(v, {0: 1, 1: 0})


class TestMakeGeneric:
    def test_already_generic_unchanged(self):
        v = zero_d_complex([0, Fr(1, 2)])
        assert make_generic(v, Fr(1, 7)) is v

    def test_example(self):
        v = zero_d_complex([0, 1])
        w = make_generic(v, Fr(1, 7))
        assert is_generic(w)
        assert max(abs(a - b) for a, b in zip(v.filters, w.filters)) <= Fr(1, 7)

    def test_pair(self):
        v1 = zero_d_complex([0, 1])
        v2 = zero_d_complex([0, Fr(1, 2), 3], gamma=PeriodGroup(Fr(1, 2)))
        w1, w2 = make_generic_pair(v1, v2, Fr(1, 9))
        assert in_general_position(w1, w2)

    def test_interval_brackets(self):
        v = zero_d_complex([0, 1])  # not generic
        cyc = v.basis_vector(1)
        eps = Fr(1, 8)
        lo, hi = spectral_invariant_interval(v, cyc, eps)
        assert lo <= hi
        assert hi - lo <= 2 * eps
        # for a zero differential the true value is the filter level
        assert lo <= 1 <= hi

    def test_interval_on_generic_is_point(self):
        v = zero_d_complex([0, Fr(1, 2)])
        cyc = v.basis_vector(1)
        lo, hi = spectral_invariant_interval(v, cyc, Fr(1, 10))
        assert lo == hi == Fr(1, 2)


# ---------------------------------------------------------------------------
# oracle: the dense-solve construction, kept as the reference the triangular
# forward substitution must reproduce exactly

def _ref_reduce_against(v, basis, dom_indices, vec):
    if not basis:
        return vec
    t = len(basis)
    zero = NovikovScalar.zero(v.field)
    mat = [[basis[i].coeffs.get(dom_indices[l], zero) for i in range(t)] for l in range(t)]
    rhs = [vec.coeffs.get(dom_indices[l], zero) for l in range(t)]
    alpha = la.solve(mat, rhs)
    assert alpha is not None
    w = vec
    for i, a in enumerate(alpha):
        if not a.is_zero():
            w = w - basis[i].scale(a)
    return w


def _ref_extend(v, out, doms, vectors):
    for vec in vectors:
        w = _ref_reduce_against(v, out, doms, vec)
        if w.is_zero():
            continue
        p, lam = dominant(v, w)
        assert p not in doms
        out.append(w.scale(lam.inverse()))
        doms.append(p)


def _ref_normal_basis(v, vectors):
    out, doms = [], []
    _ref_extend(v, out, doms, vectors)
    return out


def _ref_spectral_basis(v, order=None):
    n = v.dim
    idx = list(order) if order is not None else list(range(n))
    image = [w for w in (v.d(v.basis_vector(j)) for j in idx) if not w.is_zero()]
    out, doms = [], []
    _ref_extend(v, out, doms, image)
    q = len(out)
    kernel = [ChainElement(dict(enumerate(vec))) for vec in la.nullspace(v.diff_matrix())]
    kernel.sort(key=lambda e: [idx.index(i) for i in sorted(e.coeffs)])
    _ref_extend(v, out, doms, kernel)
    return SpectralBasis(tuple(i for i in range(n) if i not in doms),
                         tuple(out[:q]), tuple(out[q:]))


def _ref_class_of_cycle(v, sb, cycle):
    cols = list(sb.g_part) + list(sb.h_part)
    zero = NovikovScalar.zero(v.field)
    mat = [[e.coeffs.get(i, zero) for e in cols] for i in range(v.dim)]
    sol = la.solve(mat, [cycle.coeffs.get(i, zero) for i in range(v.dim)])
    assert sol is not None
    return HomologyClass(tuple(sol[sb.q:]))


def _assert_matches_reference(rng, v, order=None):
    sb = spectral_basis(v, order)
    assert sb == _ref_spectral_basis(v, order)
    if sb.p:
        a, _ = random_homology_class(rng, v, sb)
        cycle = random_cycle_representative(rng, v, sb, a)
        cls = class_of_cycle(v, sb, cycle)
        assert cls == _ref_class_of_cycle(v, sb, cycle) == a
    return sb


class TestDenseSolveOracle:
    @pytest.mark.parametrize("field", [QMODEL, F2])
    def test_corpus_complexes(self, field):
        rng = random.Random(31)
        for _ in range(20):
            _assert_matches_reference(rng, random_decorated_complex(rng, field, max_dim=8))

    @pytest.mark.parametrize("field", [QMODEL, F2])
    def test_shuffled_orders(self, field):
        rng = random.Random(32)
        for _ in range(8):
            v = random_decorated_complex(rng, field, max_dim=7)
            order = list(range(v.dim))
            rng.shuffle(order)
            _assert_matches_reference(rng, v, order)

    @pytest.mark.parametrize("field", [QMODEL, F2])
    def test_tensor_products(self, field):
        rng = random.Random(33)
        for _ in range(5):
            v1, v2 = random_general_position_pair(rng, field, max_dim=6)
            prod = tensor(v1, v2)
            order = list(range(prod.dim))
            rng.shuffle(order)
            _assert_matches_reference(rng, prod)
            _assert_matches_reference(rng, prod, order)

    def test_normal_basis_of_mixed_vectors(self):
        rng = random.Random(34)
        for _ in range(10):
            v = random_decorated_complex(rng, QMODEL, max_dim=7)
            vecs = [v.basis_vector(i) + v.basis_vector(rng.randrange(v.dim)).scale(
                        mono(rng.randrange(-3, 4), rng.randrange(1, 4)))
                    for i in range(v.dim)]
            vecs += vecs[:2]
            rng.shuffle(vecs)
            assert normal_basis(v, vecs) == _ref_normal_basis(v, vecs)

    def test_cycle_outside_span_raises(self):
        rng = random.Random(35)
        v = next(w for w in (random_decorated_complex(rng, QMODEL, dim=6)
                             for _ in range(50)) if spectral_basis(w).p)
        sb = spectral_basis(v)
        short = SpectralBasis(sb.x_part, sb.g_part, sb.h_part[:-1])
        with pytest.raises(ComplexError, match="not in the span"):
            class_of_cycle(v, short, sb.h_part[-1])


# ---------------------------------------------------------------------------
# genericity by residues against the pairwise rule

def _in_group(generator, theta):
    return theta == 0 if generator == 0 else (theta / generator).denominator == 1


FILTERS = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                   min_size=1, max_size=6)
GENERATORS = st.one_of(st.just(Fr(0)),
                       st.fractions(min_value=Fr(1, 6), max_value=2, max_denominator=6))


@given(FILTERS, GENERATORS)
@settings(max_examples=300, deadline=None)
def test_is_generic_matches_pairwise_rule(filters, generator):
    v = zero_d_complex(filters, PeriodGroup(generator))
    pairwise = not any(_in_group(generator, a - b)
                       for i, a in enumerate(filters) for b in filters[i + 1:])
    assert is_generic(v) == pairwise


@given(FILTERS, FILTERS, GENERATORS, GENERATORS)
@settings(max_examples=300, deadline=None)
def test_in_general_position_matches_pairwise_rule(f1, f2, g1, g2):
    v1 = zero_d_complex(f1, PeriodGroup(g1))
    v2 = zero_d_complex(f2, PeriodGroup(g2))
    gamma = PeriodGroup(g1) + PeriodGroup(g2)
    sums = [a + b for a in f1 for b in f2]
    pairwise = (is_generic(v1) and is_generic(v2) and not any(
        _in_group(gamma.generator, a - b) for i, a in enumerate(sums) for b in sums[i + 1:]))
    assert in_general_position(v1, v2) == pairwise


@given(st.fractions(min_value=-5, max_value=5, max_denominator=12), GENERATORS)
@settings(max_examples=300, deadline=None)
def test_period_group_residue(theta, generator):
    gamma = PeriodGroup(generator)
    r = gamma.residue(theta)
    assert _in_group(generator, theta - r)
    assert gamma.contains(theta) == _in_group(generator, theta)
    if generator:
        assert 0 <= r < generator
        assert gamma.distance(theta) == min(r, generator - r)
    else:
        assert r == theta and gamma.distance(theta) == abs(theta)
