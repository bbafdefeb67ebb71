import math

import numpy as np
import pytest
from scipy.linalg import expm

from rigidkit import spindex
from rigidkit.corpus import random_matrix_path, random_symplectic
from rigidkit.spindex import (
    DoubledPath,
    FrameIsotopy,
    IndexError_,
    LagrangianFrame,
    MatrixPath,
    ProductPath,
    RotatedPath,
    SymplecticMatrix,
    cz_floer,
    cz_matr,
    doubled_omega,
    ind,
    ind_doubled,
    j_matrix,
    leray_q,
    leray_q_second,
    leray_verify,
    maslov_loop,
    omega_matrix,
    qm_defect,
    rotation_generator,
    rs_index,
)


def rot(theta, k=1):
    return MatrixPath(k, [(rotation_generator(k) * theta, 1.0)])


def rotation_rs_oracle(theta):
    """RS index of a line rotating counterclockwise by theta against its
    start: half signs at endpoint crossings, full at interior multiples of pi."""
    total = 0.5  # departure at t = 0
    n_interior = 0
    t = math.pi
    while t < theta - 1e-12:
        n_interior += 1
        t += math.pi
    total += n_interior
    if abs((theta / math.pi) - round(theta / math.pi)) < 1e-12:
        total += 0.5
    return total


class TestStructures:
    def test_symplectic_check(self):
        SymplecticMatrix(rot(1.0).end())
        with pytest.raises(IndexError_):
            SymplecticMatrix(np.diag([2.0, 3.0]))

    def test_frame_checks(self):
        LagrangianFrame.coordinate_plane(2, "q")
        with pytest.raises(IndexError_):
            LagrangianFrame(np.array([[1.0], [0.0], [0.0], [0.0], [0.0], [0.0]]))
        with pytest.raises(IndexError_):
            # span(p1, q1) is not isotropic: omega(p1, q1) = 1
            LagrangianFrame(np.array([[1.0, 0.0], [0.0, 0.0],
                                      [0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(IndexError_):
            # rank deficient
            LagrangianFrame(np.array([[1.0, 1.0], [0.0, 0.0],
                                      [0.0, 0.0], [0.0, 0.0]]))

    def test_path_requires_symmetric_generator(self):
        with pytest.raises(IndexError_):
            MatrixPath(1, [(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)])

    def test_exponentials_are_symplectic(self):
        rng = np.random.default_rng(0)
        om = omega_matrix(2)
        for _ in range(10):
            p = random_matrix_path(rng, 2)
            for t in (0.3, 0.77, 1.0):
                a = p.value(t)
                assert np.max(np.abs(a.T @ om @ a - om)) < 1e-8


class TestRotationOracles:
    def test_rs_against_closed_form(self):
        v = LagrangianFrame.coordinate_plane(1, "p")
        for theta in (0.5 * math.pi, math.pi, 1.5 * math.pi, 2 * math.pi,
                      3.7, 5.9, 3 * math.pi):
            got = ind(rot(theta), v)
            assert got == rotation_rs_oracle(theta), theta

    def test_constant_transverse_path_is_zero(self):
        # constant path of the q-plane against the p-plane: no crossings
        k = 1
        q_plane = LagrangianFrame.coordinate_plane(k, "q")
        p_plane = LagrangianFrame.coordinate_plane(k, "p")
        iso = FrameIsotopy(MatrixPath(k, []), q_plane)
        assert rs_index(iso, p_plane) == 0.0

    def test_concatenation_additivity(self):
        v = LagrangianFrame.coordinate_plane(1, "p")
        rng = np.random.default_rng(1)
        for _ in range(10):
            t1, t2 = rng.uniform(0.3, 2.5, size=2)
            whole = MatrixPath(1, [(rotation_generator(1) * t1, 1.0),
                                   (rotation_generator(1) * t2, 1.0)])
            lhs = ind(whole, v)
            # Robbin-Salamon catenation: the first piece against v plus the
            # second piece, started from the rotated line, against v; an
            # endpoint crossing at the split counts half on each side
            second = rot(t2)
            start = LagrangianFrame(rot(t1).end() @ v.columns)
            a = ind(rot(t1), v)
            b = rs_index(FrameIsotopy(second, start), v)
            assert a + b == lhs
            assert lhs == rotation_rs_oracle(t1 + t2)


class TestMaslov:
    def test_full_twist_is_two(self):
        assert maslov_loop(rot(2 * math.pi)) == 2

    def test_l_fold(self):
        for l in range(1, 6):
            assert maslov_loop(rot(2 * math.pi * l)) == 2 * l

    def test_constant_loop(self):
        assert maslov_loop(MatrixPath(1, [(np.zeros((2, 2)), 1.0)])) == 0

    def test_loop_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            la_, lb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a, b = rot(2 * math.pi * la_), rot(2 * math.pi * lb)
            assert maslov_loop(ProductPath(a, b)) == maslov_loop(a) + maslov_loop(b)

    def test_non_loop_rejected(self):
        with pytest.raises(IndexError_):
            maslov_loop(rot(1.0))


class TestConleyZehnder:
    def test_full_rotation(self):
        assert cz_matr(rot(2 * math.pi)) == 2.0

    def test_matches_doubled_ind(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_matrix_path(rng, 1)
            assert cz_matr(p) == ind_doubled(p)
        for _ in range(5):
            p = random_matrix_path(rng, 2, scale=0.8)
            assert cz_matr(p) == ind_doubled(p)

    def test_floer_normalization(self):
        assert cz_floer(rot(2 * math.pi), 1) == 1 - 2
        zero_path = MatrixPath(1, [(np.zeros((2, 2)), 1.0)])
        # regularized constant path: cz = 1, so cz_floer = n - 1 here;
        # a path with cz 0 gives exactly n
        assert cz_floer(zero_path, 1) == 1 - cz_matr(zero_path)

    def test_trivialization_covariance(self):
        # multiplying by a Maslov-2m loop shifts cz by 2m, so cz_floer drops
        rng = np.random.default_rng(5)
        for _ in range(8):
            p = random_matrix_path(rng, 1)
            loop = rot(2 * math.pi)
            shifted = ProductPath(p, loop)
            assert cz_matr(shifted) == pytest.approx(cz_matr(p) + 2, abs=1e-9)

    def test_dimension_guard(self):
        with pytest.raises(IndexError_):
            cz_floer(rot(1.0), 2)


class TestRegularization:
    def test_constant_identity_ind(self):
        v = LagrangianFrame.coordinate_plane(1, "p")
        val = ind(MatrixPath(1, [(np.zeros((2, 2)), 1.0)]), v)
        assert val == 0.5  # documented delta-rotation convention, k/2
        assert abs(val) <= 1

    def test_constant_identity_sp4(self):
        v = LagrangianFrame.coordinate_plane(2, "q")
        val = ind(MatrixPath(2, [(np.zeros((4, 4)), 1.0)]), v)
        assert val == 1.0  # k/2 with k = 2
        assert abs(val) <= 2

    def test_path_inside_crossing_variety(self):
        # hyperbolic path fixing the q-plane: the induced line never leaves
        # the crossing variety; regularization must still resolve it
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = MatrixPath(1, [(s, 1.0)])
        v = LagrangianFrame.coordinate_plane(1, "q")
        val = ind(p, v)
        assert val == val  # finite, snapped
        assert abs(val) <= 1


class TestNaturality:
    def test_conjugation(self):
        rng = np.random.default_rng(6)
        v = LagrangianFrame.coordinate_plane(1, "q")
        for _ in range(20):
            p = random_matrix_path(rng, 1)
            b = random_symplectic(rng, 1)
            bv = LagrangianFrame(b @ v.columns)
            assert ind(p.conjugate(b), bv) == ind(p, v)

    def test_conjugate_path_values(self):
        rng = np.random.default_rng(7)
        p = random_matrix_path(rng, 1)
        b = random_symplectic(rng, 1)
        q = p.conjugate(b)
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(q.value(t), b @ p.value(t) @ np.linalg.inv(b),
                               atol=1e-9)


class TestLeray:
    def test_block_form(self):
        a = rot(3 * math.pi / 4).end()
        q = leray_q(a)
        # rotation by theta: E = cos, F = -sin, Q = -cot(theta)
        assert q[0, 0] == pytest.approx(-1.0 / math.tan(3 * math.pi / 4))
        q2 = leray_q_second(a)
        assert q2[0, 0] == pytest.approx(q[0, 0])

    def test_hand_rotations(self):
        for ta, tb in [(3 * math.pi / 4, 3 * math.pi / 4),
                       (math.pi / 4, math.pi / 2), (2.0, 2.5)]:
            rep = leray_verify(rot(ta), rot(tb))
            assert rep["residual"] < 1e-9

    def test_transversality_violation(self):
        with pytest.raises(IndexError_, match="transversality"):
            leray_verify(rot(math.pi), rot(0.5))  # A1 = -I fixes the q-plane

    def test_random_pairs(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 15:
            a = random_matrix_path(rng, 1)
            b = random_matrix_path(rng, 1)
            try:
                rep = leray_verify(a, b)
            except IndexError_:
                continue
            assert rep["residual"] < 1e-6
            done += 1

    def test_sp4_pairs(self):
        rng = np.random.default_rng(9)
        done = 0
        while done < 6:
            a = random_matrix_path(rng, 2)
            b = random_matrix_path(rng, 2)
            try:
                rep = leray_verify(a, b)
            except IndexError_:
                continue
            assert rep["residual"] < 1e-6
            done += 1


class TestQuasimorphism:
    def test_loops_have_zero_defect(self):
        assert qm_defect(rot(2 * math.pi), rot(4 * math.pi)) == 0.0

    def test_identity_factor(self):
        rng = np.random.default_rng(10)
        const = MatrixPath(1, [(np.zeros((2, 2)), 1.0)])
        for _ in range(5):
            a = random_matrix_path(rng, 1)
            d = qm_defect(a, const)
            # defect equals the regularization offset of the constant path
            assert d <= 1.0

    def test_sampled_defect_bounded(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            a = random_matrix_path(rng, 1)
            b = random_matrix_path(rng, 1)
            worst = max(worst, qm_defect(a, b))
        assert math.isfinite(worst)
        assert worst <= 3.0


class TestStability:
    def test_reparametrization_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            p = random_matrix_path(rng, 1, segments=2)
            q = p.reparametrized([0.31, 1.9])
            assert cz_matr(p) == cz_matr(q)
            v = LagrangianFrame.coordinate_plane(1, "q")
            assert ind(p, v) == ind(q, v)

    def test_small_perturbations_bounded_jump(self):
        rng = np.random.default_rng(13)
        v = LagrangianFrame.coordinate_plane(1, "q")
        for _ in range(6):
            p = random_matrix_path(rng, 1, segments=2)
            base = ind(p, v)
            segs = [(s + 1e-7 * rng.normal(size=s.shape)
                     + 1e-7 * rng.normal(size=s.shape).T * 0, d)
                    for s, d in p.segments]
            segs = [(0.5 * (s + s.T), d) for s, d in segs]
            q = MatrixPath(1, segs)
            assert abs(ind(q, v) - base) <= 2 * 1  # 2k with k = 1


# ---------------------------------------------------------------------------
# batched path evaluation and the stacked crossing grid

def reference_value(p, t):
    """Value of a MatrixPath from scratch: walk the clock from 0 and multiply
    one scipy expm per segment (t clamped to [0, 1])."""
    left = min(max(t, 0.0), 1.0) * p.total
    out = np.eye(2 * p.k)
    j = j_matrix(p.k)
    for s, d in p.segments:
        step = min(left, d)
        out = expm(j @ s * step) @ out
        left -= step
    return out


def reference_doubled(a):
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = np.eye(n)
    out[n:, n:] = a
    return out


class ReferenceGraphIsotopy:
    """The graph path {Gr A_t} built by hand: frames [I; A_t] and
    derivatives [0; dA_t/dt] in the doubled space."""

    def __init__(self, p):
        self.path, self.k, self.omega = p, 2 * p.k, doubled_omega(p.k)

    def frames(self, ts):
        a = self.path.values(np.asarray(ts, dtype=float))
        return np.concatenate([np.broadcast_to(np.eye(2 * self.path.k), a.shape), a], axis=1)

    def frame(self, t):
        return self.frames(np.array([t]))[0]

    def dframe(self, t):
        n = 2 * self.path.k
        return np.vstack([np.zeros((n, n)), self.path.derivative(t)])


def reference_det_indicator(z, v):
    """The per-sample crossing indicator: QR complement of v, one solve and
    one det per frame z."""
    n, k = z.shape
    q, _ = np.linalg.qr(v, mode="complete")
    c = np.linalg.solve(np.hstack([v, q[:, k:]]), z)
    norms = np.linalg.norm(c, axis=0)
    d = float(np.linalg.det(c[k:, :]))
    denom = float(np.prod(np.maximum(norms, 1e-300)))
    return d / denom if denom > 0 else 0.0


def assert_close(got, ref, rel=1e-10):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * max(1.0, float(np.max(np.abs(ref))))


SHEAR = np.array([[1.0, 0.0], [0.0, 0.0]])  # J S is nilpotent


def sample_times(p):
    """0, 1, the segment boundaries, interior points and points outside [0, 1]."""
    bounds = list(np.cumsum([d for _, d in p.segments])[:-1] / p.total)
    return np.array([0.0, 1.0, *bounds, 0.13, 0.5, 0.871, -0.3, 1.4])


class TestBatchedPaths:
    def paths(self):
        rng = np.random.default_rng(21)
        shear = MatrixPath(1, [(SHEAR * 1.7, 0.4), (rotation_generator(1), 0.9),
                               (SHEAR * -0.6, 0.7)])
        assert not shear._exps[0]._ok  # the expm fallback is exercised
        return [random_matrix_path(rng, 1, segments=3), random_matrix_path(rng, 2),
                shear, MatrixPath(1, [(np.zeros((2, 2)), 1.0)])]

    def test_matrix_path(self):
        for p in self.paths():
            ts = sample_times(p)
            ref = np.stack([reference_value(p, t) for t in ts])
            assert_close(p.values(ts), ref)
            for t, r in zip(ts, ref):
                assert_close(p.value(t), r)

    def test_boundary_belongs_to_earlier_segment(self):
        for p in self.paths():
            j, acc = j_matrix(p.k), 0.0
            for s, d in p.segments[:-1]:
                acc += d
                t = acc / p.total
                expected = (j @ s * p.total) @ reference_value(p, t)
                assert_close(p.derivative(t), expected)

    def test_wrappers(self):
        a, b, shear, const = self.paths()
        delta = 0.37
        for p, q in ((a, shear), (shear, const), (b, b)):
            if p.k != q.k:
                continue
            ts = np.union1d(sample_times(p), sample_times(q))
            refs = {
                "product": [reference_value(p, t) @ reference_value(q, t) for t in ts],
                "rotated": [expm(j_matrix(p.k) * delta * t) @ reference_value(p, t) for t in ts],
                "doubled": [reference_doubled(reference_value(p, t)) for t in ts],
                "doubled-rotated": [expm(-doubled_omega(p.k) * delta * t)
                                    @ reference_doubled(reference_value(p, t)) for t in ts],
            }
            built = {
                "product": ProductPath(p, q),
                "rotated": RotatedPath(p, delta),
                "doubled": DoubledPath(p),
                "doubled-rotated": spindex._DoubledRotated(DoubledPath(p), delta),
            }
            for name, path in built.items():
                ref = np.stack(refs[name])
                assert_close(path.values(ts), ref)
                for t, r in zip(ts, ref):
                    assert_close(path.value(t), r)

    def test_grid_indicator_matches_per_sample_formula(self):
        rng = np.random.default_rng(22)
        ts = np.linspace(-0.1, 1.1, 301)
        for k in (1, 2):
            p = ProductPath(random_matrix_path(rng, k), random_matrix_path(rng, k))
            diagonal = LagrangianFrame.diagonal(k)
            cases = [(FrameIsotopy(DoubledPath(p), diagonal), diagonal.columns)]
            for which in ("p", "q"):
                v = LagrangianFrame.coordinate_plane(k, which)
                cases.append((FrameIsotopy(p, v), v.columns))
            for iso, v in cases:
                got = spindex._det_indicators(spindex._indicator_basis(v), iso.frames(ts))
                ref = np.array([reference_det_indicator(iso.frame(t), v) for t in ts])
                assert np.max(np.abs(got - ref)) <= 1e-12

    def test_graph_path_is_doubled_orbit_of_the_diagonal(self):
        # [[I, 0], [0, A]] [I; I] = [I; A] with products by 0 and 1 only, so
        # the orbit reproduces the hand-built graph frames exactly
        ts = np.linspace(-0.1, 1.1, 61)
        for k in (1, 2):
            diagonal = LagrangianFrame.diagonal(k)
            for seed in range(4):
                p = random_matrix_path(np.random.default_rng([25, k, seed]), k)
                for base in (p, RotatedPath(p, 1e-3)):
                    ref = ReferenceGraphIsotopy(base)
                    iso = FrameIsotopy(DoubledPath(base), diagonal)
                    assert np.array_equal(iso.frames(ts), ref.frames(ts))
                    for t in ts:
                        assert np.array_equal(iso.frame(t), ref.frame(t))
                        assert np.array_equal(iso.dframe(t), ref.dframe(t))
                    assert (rs_index(iso, diagonal, _raw=True)
                            == rs_index(ref, diagonal, _raw=True))

    def test_crossings_independent_of_block_size(self, monkeypatch):
        rng = np.random.default_rng(24)
        v = LagrangianFrame.coordinate_plane(1, "p")
        paths = [rot(math.pi), rot(2 * math.pi)] + [random_matrix_path(rng, 1) for _ in range(4)]
        for p in paths:
            iso = FrameIsotopy(p, v)
            for n in (256, 1000):
                ts = np.linspace(0.0, 1.0, n + 1)
                found = []
                for block in (1, 7, 256, n + 1):
                    monkeypatch.setattr(spindex, "_GRID_BLOCK", block)
                    found.append(spindex._find_crossings(iso, v.columns, ts))
                assert all(f == found[-1] for f in found)
        # the half and full turns return to V at t = 1, the last grid sample
        monkeypatch.undo()
        ts = np.linspace(0.0, 1.0, 257)
        for p, expected in ((rot(math.pi), [0.0, 1.0]), (rot(2 * math.pi), [0.0, 0.5, 1.0])):
            found = spindex._find_crossings(FrameIsotopy(p, v), v.columns, ts)
            assert found == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# independent oracle for k = 1: the lifted angle of the line A_t V

MAX_STEP = 0.3  # radians the line may turn between grid samples


def lifted_turn(p, v):
    """Total angle psi turned by the line A_t V, lifted continuously from a
    grid of values(ts), and the largest turn between two samples."""
    x = p.values(np.linspace(0.0, 1.0, 4097)) @ v[:, 0]
    theta = np.unwrap(np.arctan2(x[:, 1], x[:, 0]))
    return theta[-1] - theta[0], float(np.max(np.abs(np.diff(theta))))


def test_ind_matches_lifted_angle_for_k1():
    checked = skipped = 0
    for seed in range(250):
        p = random_matrix_path(np.random.default_rng([31, seed]), 1)
        for which in ("p", "q"):
            v = LagrangianFrame.coordinate_plane(1, which)
            psi, step = lifted_turn(p, v.columns)
            assert step < MAX_STEP
            turns = psi / math.pi
            if abs(turns - round(turns)) < 1e-6:
                skipped += 1
                continue
            assert ind(p, v) == math.floor(turns) + 0.5, (seed, which, psi)
            checked += 1
    assert skipped <= 0.01 * (checked + skipped)


# ---------------------------------------------------------------------------
# known defect of the Leray identity at k = 2

@pytest.mark.xfail(strict=True, reason=(
    "crossings of {A_t B_t} L within ~2e-3 of t = 0 fall between the default "
    "grid samples (t ~ 1.66e-3 for [17, 23, 3], ~1.8e-4 for [12, 24, 3]), so lhs "
    "misses them; at 16384 samples/unit [12, 24, 3] resolves to lhs 0 = rhs"))
@pytest.mark.parametrize("seed", [[17, 23, 3], [12, 24, 3]])
def test_leray_known_defect_pairs(seed):
    rng = np.random.default_rng(seed)
    a, b = random_matrix_path(rng, 2), random_matrix_path(rng, 2)
    assert leray_verify(a, b)["residual"] < 1e-6


# ---------------------------------------------------------------------------
# sequential oracle for the stacked crossing refinement

def reference_find_crossings(iso, v_frame, ts):
    """The crossing search with its refinements run one sample at a time:
    each bisection or golden-section step evaluates the indicator at one
    point, the next point chosen from that value."""
    tols = spindex.DEFAULT_TOLS
    m = spindex._indicator_basis(v_frame)
    fs = spindex._det_indicators(m, iso.frames(ts))
    absf = np.abs(fs)
    fmax = float(np.max(absf))
    if fmax == 0.0:
        raise spindex.RegularityError("path appears to lie inside the crossing variety")
    zero = tols["det_zero"] * fmax
    near = absf <= zero
    if np.count_nonzero(near) > len(ts) // 2:
        raise spindex.RegularityError("path appears to lie inside the crossing variety")
    crossings = set()

    def f_at(t):
        return spindex._det_indicators(m, iso.frames([t]))[0]

    def bisect(a, b, fa, fb):
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = f_at(m)
            if abs(fm) <= zero or (b - a) < tols["bisection"]:
                return m
            if (fa < 0) != (fm < 0):
                b, fb = m, fm
            else:
                a, fa = m, fm
        return 0.5 * (a + b)

    def refine_min(a, b):
        phi = (math.sqrt(5) - 1) / 2
        x1 = b - phi * (b - a)
        x2 = a + phi * (b - a)
        f1, f2 = abs(f_at(x1)), abs(f_at(x2))
        while (b - a) > tols["bisection"]:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - phi * (b - a)
                f1 = abs(f_at(x1))
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + phi * (b - a)
                f2 = abs(f_at(x2))
        return 0.5 * (a + b)

    if near[0]:
        crossings.add(0.0)
    if near[-1]:
        crossings.add(1.0)
    neg, far = fs < 0, ~near
    for i in np.flatnonzero((neg[:-1] != neg[1:]) & far[:-1] & far[1:]):
        crossings.add(bisect(ts[i], ts[i + 1], fs[i], fs[i + 1]))
    gate = 0.05 * fmax
    inner = absf[1:-1]
    for i in np.flatnonzero((inner <= absf[:-2]) & (inner <= absf[2:]) & (inner < gate)) + 1:
        if near[i]:
            crossings.add(float(ts[i]))
            continue
        t_min = refine_min(ts[i - 1], ts[i + 1])
        if abs(f_at(t_min)) <= max(zero, 1e-14 * fmax):
            crossings.add(t_min)
    merge_tol = max(1e-6, 10 * tols["bisection"])
    out = []
    for t in sorted(crossings):
        if out and abs(t - out[-1]) < merge_tol:
            continue
        out.append(t)
    return out


def reference_rs_index(iso, v, levels):
    """rs_index(iso, v, _raw=True) with every grid level searched on its own
    by reference_find_crossings; the crossing list of each level searched is
    appended to levels."""
    tols = spindex.DEFAULT_TOLS
    n = spindex._samples_for(spindex._sampling_hint(iso.path))
    crossings = None
    for level in range(5):
        found = reference_find_crossings(iso, v.columns, np.linspace(0.0, 1.0, n + 1))
        levels.append(found)
        if crossings is not None and len(found) == len(crossings) and all(
                abs(a - b) < 1e-6 for a, b in zip(found, crossings)):
            break
        crossings = found
        n = 2 * n + 17
    total = 0.0
    records = []
    eps = tols["bisection"]
    for t in crossings:
        end = 0.0 if t <= eps else 1.0 if t >= 1.0 - eps else None
        kd, sig = spindex.crossing_form(iso, v.columns, t if end is None else end)
        total += (1.0 if end is None else 0.5) * sig
        records.append(spindex.CrossingRecord(float(t), kd, sig, end is not None))
    snapped = round(total * 2) / 2
    if abs(total - snapped) > tols["snap"]:
        raise IndexError_(f"index not resolved: residual {abs(total - snapped):.2e}")
    return snapped, records


def outcome(fn):
    """fn()'s value, or the class and message of the index error it raised."""
    try:
        return fn()
    except IndexError_ as e:
        return type(e).__name__, str(e)


def oracle_cases(seeds):
    """(isotopy, frame) pairs over the five path classes, k = 1 and 2: the
    plain, product and rotated paths against the p- and q-planes, the doubled
    and doubled-rotated paths against the diagonal."""
    for seed in seeds:
        rng = np.random.default_rng([41, seed])
        k = 1 + seed % 2
        p, q = random_matrix_path(rng, k), random_matrix_path(rng, k)
        delta = float(rng.uniform(1e-3, 0.3))
        for which in ("p", "q"):
            v = LagrangianFrame.coordinate_plane(k, which)
            for path in (p, ProductPath(p, q), RotatedPath(p, delta)):
                yield FrameIsotopy(path, v), v
        diagonal = LagrangianFrame.diagonal(k)
        for path in (DoubledPath(p), spindex._DoubledRotated(DoubledPath(p), delta)):
            yield FrameIsotopy(path, diagonal), diagonal


def first_grids(iso):
    n = spindex._samples_for(spindex._sampling_hint(iso.path))
    return [np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0, 2 * n + 18)]


class TestStackedRefinement:
    def assert_matches_oracle(self, iso, v):
        levels = []
        ref = outcome(lambda: reference_rs_index(iso, v, levels))
        assert outcome(lambda: rs_index(iso, v, _raw=True)) == ref
        if len(levels) >= 2:
            grids = first_grids(iso)
            assert spindex._crossing_levels(iso, v.columns, grids) == levels[:2]
            assert spindex._find_crossings(iso, v.columns, grids[0]) == levels[0]
        return levels

    def test_seeded_paths(self):
        cases = list(oracle_cases(range(26)))
        assert len(cases) >= 200
        for iso, v in cases:
            self.assert_matches_oracle(iso, v)

    def test_escalation_past_the_first_two_levels(self):
        # graph paths whose first two grids disagree on the crossing set
        for seed in (534, 663):
            rng = np.random.default_rng([41, seed])
            k = 1 + seed % 2
            p, q = random_matrix_path(rng, k), random_matrix_path(rng, k)
            diagonal = LagrangianFrame.diagonal(k)
            iso = FrameIsotopy(DoubledPath(ProductPath(p, q)), diagonal)
            assert len(self.assert_matches_oracle(iso, diagonal)) > 2

    def test_turns_cross_on_the_last_sample(self):
        for k in (1, 2):
            v = LagrangianFrame.coordinate_plane(k, "p")
            for theta in (math.pi, 2 * math.pi):
                iso = FrameIsotopy(rot(theta, k), v)
                assert spindex._find_crossings(iso, v.columns, first_grids(iso)[0])[-1] == 1.0
                self.assert_matches_oracle(iso, v)

    def test_paths_inside_the_crossing_variety(self):
        q_plane = LagrangianFrame.coordinate_plane(1, "q")
        hyperbolic = MatrixPath(1, [(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)])
        for path in (MatrixPath(1, []), hyperbolic):
            iso = FrameIsotopy(path, q_plane)
            with pytest.raises(spindex.RegularityError,
                               match="path appears to lie inside the crossing variety"):
                rs_index(iso, q_plane)
            self.assert_matches_oracle(iso, q_plane)


def count_stacked_calls(monkeypatch):
    """Patch _det_indicators to record the batch size of every call."""
    calls, real = [], spindex._det_indicators

    def counted(m, zs):
        calls.append(len(zs))
        return real(m, zs)

    monkeypatch.setattr(spindex, "_det_indicators", counted)
    return calls


@pytest.mark.parametrize("batch", [1, 7, 31, None])
def test_stacked_indicators_equal_one_sample_values(batch):
    # the stacked rounds reproduce the sequential crossings only because a
    # stacked evaluation gives every sample the same bits as a one-sample
    # evaluation: numpy's batched matmul, solve and det must work per slice
    ts = np.concatenate([np.linspace(0.0, 1.0, 65),
                         np.random.default_rng(45).uniform(0.0, 1.0, 64)])
    for iso, v in oracle_cases(range(2)):
        m = spindex._indicator_basis(v.columns)
        single = np.array([spindex._det_indicators(m, iso.frames(ts[i:i + 1]))[0]
                           for i in range(len(ts))])
        size = batch or len(ts)
        stacked = np.concatenate([spindex._det_indicators(m, iso.frames(ts[i:i + size]))
                                  for i in range(0, len(ts), size)])
        assert np.array_equal(stacked, single), (
            f"stacked indicators at batch size {size} differ from one-sample values "
            f"for {type(iso.path).__name__}: stacked crossing refinement is unsound")


def test_agreeing_levels_without_crossings_take_one_stacked_call(monkeypatch):
    calls = count_stacked_calls(monkeypatch)
    q_plane = LagrangianFrame.coordinate_plane(1, "q")
    p_plane = LagrangianFrame.coordinate_plane(1, "p")
    for path in (MatrixPath(1, []), rot(0.5)):
        calls.clear()
        assert rs_index(FrameIsotopy(path, q_plane), p_plane) == 0.0
        assert calls == [257 + 530]


def test_stacked_call_count_guard(monkeypatch):
    # refining one sample at a time took 4684 calls on these 60 indices
    calls = count_stacked_calls(monkeypatch)
    for seed in range(30):
        rng = np.random.default_rng([43, seed])
        k = 1 + seed % 2
        p = ProductPath(random_matrix_path(rng, k), random_matrix_path(rng, k))
        cz_matr(p)
        ind(p, LagrangianFrame.coordinate_plane(k, "q"))
    assert len(calls) <= 900
