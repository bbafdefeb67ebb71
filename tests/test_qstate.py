import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from rigidkit.qstate import (
    ModelState,
    PLFunction,
    QStateError,
    axiom_suite,
    barycentric_refine,
    fan_triangulation,
    fourier_reduction_demo,
    gaussian_sampler,
    model_heavy,
    zeta,
)
from rigidkit.toric import ConvexBody, builtin_moment_data, projective_moment_data


@pytest.fixture(scope="module")
def state():
    return ModelState(projective_moment_data(2))


@pytest.fixture(scope="module")
def mesh(state):
    return barycentric_refine(*fan_triangulation(state.moment))


def pl(mesh, values):
    verts, simps = mesh
    return PLFunction(verts, simps, values)


class TestPLFunction:
    def test_vertex_values_reproduced(self, mesh):
        verts, simps = mesh
        vals = [Fr(i, 3) for i in range(len(verts))]
        f = pl(mesh, vals)
        for v, val in zip(verts, vals):
            assert f.evaluate(v) == val

    def test_linear_function_exact(self, mesh):
        verts, simps = mesh
        vals = [2 * v[0] + 3 * v[1] + Fr(1, 5) for v in verts]
        f = pl(mesh, vals)
        for pt in [(0, 0), (Fr(1, 10), Fr(1, 10)), (Fr(-1, 5), Fr(1, 7))]:
            try:
                value = f.evaluate(pt)
            except QStateError:
                continue  # outside the triangulated domain
            assert value == 2 * pt[0] + 3 * pt[1] + Fr(1, 5)

    def test_outside_domain_errors(self, mesh):
        f = pl(mesh, [0] * len(mesh[0]))
        with pytest.raises(QStateError, match="outside"):
            f.evaluate((5, 5))

    def test_hanging_vertex_rejected(self):
        verts = [(0, 0), (1, 0), (0, 1), (Fr(1, 4), Fr(1, 4))]
        simplices = [(0, 1, 2)]
        with pytest.raises(QStateError, match="hanging"):
            PLFunction(verts, simplices, [0, 0, 0, 1])

    def test_comparison_requires_shared_triangulation(self, mesh):
        f = pl(mesh, [0] * len(mesh[0]))
        other = PLFunction([(0,), (1,)], [(0, 1)], [0, 0])
        with pytest.raises(QStateError):
            f <= other


class TestZeta:
    def test_constant_one(self, state, mesh):
        assert zeta(state, pl(mesh, [1] * len(mesh[0]))) == 1

    def test_convex_minimum_at_special_point(self, state, mesh):
        verts, _ = mesh
        m = Fr(-3, 7)
        vals = [m + abs(v[0]) + abs(v[1]) for v in verts]
        f = pl(mesh, vals)
        assert zeta(state, f) == m

    def test_constant_shift(self, state, mesh):
        verts, _ = mesh
        rng = random.Random(0)
        vals = [Fr(rng.randrange(-9, 10), 3) for _ in verts]
        f = pl(mesh, vals)
        assert zeta(state, f.add_constant(5)) == zeta(state, f) + 5

    def test_outside_domain(self, state):
        f = PLFunction([(1, 1), (2, 1), (1, 2)], [(0, 1, 2)], [0, 0, 0])
        with pytest.raises(QStateError):
            zeta(state, f)


class TestAxiomSuite:
    def test_cp2_all_exact(self, state):
        rep = axiom_suite(state, trials=50, seed=11)
        assert rep["status"] == "ok"
        assert rep["violations"] == []
        assert rep["checks"]["vanishing"] >= 1

    def test_noncompressible_skips_vanishing(self):
        st = ModelState(builtin_moment_data("blowup"))
        rep = axiom_suite(st, trials=20, seed=2)
        assert rep["status"] == "ok"
        assert rep["checks"]["vanishing"] == 0

    def test_user_sample(self, state, mesh):
        verts, simps = mesh
        fs = [pl(mesh, [Fr(i + j, 5) for j in range(len(verts))]) for i in range(4)]
        rep = axiom_suite(state, sample=fs, trials=4, seed=0)
        assert rep["status"] == "ok"

    def test_lipschitz_in_sup_norm(self, state, mesh):
        verts, _ = mesh
        rng = random.Random(3)
        for _ in range(25):
            f_vals = [Fr(rng.randrange(-12, 13), 4) for _ in verts]
            g_vals = [v + Fr(rng.randrange(-3, 4), 8) for v in f_vals]
            f, g = pl(mesh, f_vals), pl(mesh, g_vals)
            diff = max(abs(a - b) for a, b in zip(f_vals, g_vals))
            assert abs(zeta(state, f) - zeta(state, g)) <= diff


class TestHeavy:
    def test_whole_polytope(self, state):
        body = ConvexBody(list(state.moment.polytope.vertices))
        assert model_heavy(state, body)["heavy"]

    def test_special_point_singleton(self, state):
        assert model_heavy(state, ConvexBody([state.p_spec]))["heavy"]

    def test_disjoint_bodies_at_most_one(self, state):
        rng = random.Random(4)
        for _ in range(20):
            bodies = []
            base = Fr(rng.randrange(-20, 5), 100)
            step = Fr(rng.randrange(9, 15), 100)
            for t in range(3):
                x0 = base + t * step
                e = step / 4
                bodies.append(ConvexBody([(x0, 0), (x0 + e, 0), (x0, e)]))
            hits = sum(1 for b in bodies if model_heavy(state, b)["heavy"])
            assert hits <= 1

    def test_report_names_test_class(self, state):
        rep = model_heavy(state, ConvexBody([state.p_spec]))
        assert "pullback" in rep["test_class"]


class TestFourierDemo:
    def test_gaussian_at_special_point(self, state):
        rep = fourier_reduction_demo(state, gaussian_sampler(state.p_spec),
                                     radius=10.0, eps=0.05, refinements=1)
        assert rep["error"] <= 1e-3

    def test_zero_function(self, state):
        sampler = gaussian_sampler(state.p_spec)
        zero = type(sampler)(lambda p: np.zeros(p.shape[:-1]),
                             sampler.box_lo, sampler.box_hi)
        rep = fourier_reduction_demo(state, zero, radius=5.0, eps=0.1)
        assert rep["zeta"] == 0.0 and rep["error"] == 0.0
        for row in rep["table"]:
            assert row["zeta"] == 0.0

    def test_refinement_does_not_degrade(self, state):
        rep = fourier_reduction_demo(state, gaussian_sampler(state.p_spec),
                                     radius=8.0, eps=0.1, refinements=2)
        errs = [row["error"] for row in rep["table"]]
        quad_tol = 1e-6
        for a, b in zip(errs, errs[1:]):
            assert b <= a + quad_tol

    def test_separable_product_matches_1d_runs(self):
        st2 = ModelState(projective_moment_data(2))
        st1 = ModelState(projective_moment_data(1))
        # center the separable bump at the origin = both special points
        sig = 0.8
        rep2 = fourier_reduction_demo(
            st2, gaussian_sampler((0, 0), sigma=sig), radius=10.0, eps=0.05)
        rep1 = fourier_reduction_demo(
            st1, gaussian_sampler((0,), sigma=sig), radius=10.0, eps=0.05)
        assert abs(rep2["zeta"] - rep1["zeta"] ** 2) <= 1e-3

    def test_non_decaying_sampler_rejected(self, state):
        bad = gaussian_sampler(state.p_spec, sigma=1.0, width=1.0)
        with pytest.raises(QStateError, match="decay"):
            fourier_reduction_demo(state, bad)

    def test_dimension_cap(self):
        st = ModelState(projective_moment_data(3))
        with pytest.raises(QStateError):
            fourier_reduction_demo(st, gaussian_sampler(st.p_spec))
