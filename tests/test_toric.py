import random
from fractions import Fraction as Fr

import pytest

from rigidkit import rational_geometry, toric
from rigidkit.rational_geometry import (
    centroid_and_volume,
    convex_hull_facets,
    extreme_points,
    hull_edges,
    mat_det,
    point_in_hull,
    primitive_vector,
    separating_functional,
    triangulate,
)
from rigidkit.toric import (
    ConvexBody,
    DelzantPolytope,
    MomentData,
    ToricError,
    ball_subpolytope,
    blowup_moment_data,
    builtin_moment_data,
    delzant_verify,
    fiber_status,
    normalize,
    product_of_spheres_moment_data,
    projective_moment_data,
    simplex_polytope,
    special_point,
    stable_displaceability_certificate,
)


class TestPolytopeBasics:
    def test_simplex_facets_and_edges(self):
        p = simplex_polytope(2)
        assert len(p.facets) == 3
        assert len(p.edges) == 3
        assert p.contains((Fr(1, 4), Fr(1, 4)))
        assert not p.contains((1, 1))

    def test_cube(self):
        p = DelzantPolytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1)
                                for z in (0, 1)])
        assert len(p.facets) == 6
        assert len(p.edges) == 12

    def test_interval(self):
        p = DelzantPolytope(1, [(0,), (1,)])
        assert p.contains((Fr(1, 2),)) and not p.contains((2,))
        assert p.edges == ((0, 1),)

    def test_non_extreme_point_rejected(self):
        with pytest.raises(ToricError, match="extreme"):
            DelzantPolytope(2, [(0, 0), (1, 0), (0, 1), (Fr(1, 4), Fr(1, 4))])

    def test_construction_enumerates_the_hull_once(self, monkeypatch):
        calls = []
        real = rational_geometry.convex_hull_facets

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rational_geometry, "convex_hull_facets", counting)
        monkeypatch.setattr(toric, "convex_hull_facets", counting)
        p = DelzantPolytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1)
                                for z in (0, 1)])
        assert len(calls) == 1
        assert len(p.facets) == 6 and len(p.edges) == 12

    def test_degenerate_rejected(self):
        with pytest.raises(ToricError):
            DelzantPolytope(2, [(0, 0), (1, 0), (2, 0)])

    def test_dimension_cap(self):
        with pytest.raises(ToricError):
            DelzantPolytope(5, [tuple([0] * 5)] * 6)

    def test_edge_directions_primitive(self):
        p = simplex_polytope(2, scale=3)
        for i in range(3):
            for d in p.edge_directions(i):
                assert max(abs(x) for x in d) >= 1
                assert primitive_vector(d) == d


class TestNormalize:
    def test_simplex_shift(self):
        for n in (1, 2, 3):
            _, w = normalize(simplex_polytope(n))
            assert w == tuple([Fr(-1, n + 1)] * n)

    def test_symmetric_square_identity(self):
        h = Fr(1, 2)
        p = DelzantPolytope(2, [(-h, -h), (h, -h), (-h, h), (h, h)])
        q, w = normalize(p)
        assert w == (0, 0)
        assert q == p

    def test_interval(self):
        p = DelzantPolytope(1, [(0,), (1,)])
        q, w = normalize(p)
        assert w == (Fr(-1, 2),)
        assert sorted(q.vertices) == [(Fr(-1, 2),), (Fr(1, 2),)]

    def test_idempotent(self):
        p = DelzantPolytope(2, [(1, 0), (3, 0), (0, 3), (0, 1)])
        q1, _ = normalize(p)
        q2, w2 = normalize(q1)
        assert w2 == (0, 0)
        assert q1 == q2


class TestDelzantCondition:
    def test_simplex_and_square_ok(self):
        assert delzant_verify(simplex_polytope(2)) == []
        sq = DelzantPolytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert delzant_verify(sq) == []

    def test_failing_triangle(self):
        p = DelzantPolytope(2, [(0, 0), (2, 0), (0, 1)])
        bad = delzant_verify(p)
        assert len(bad) == 1
        assert "det" in bad[0] and "2" in bad[0]
        assert "0" in bad[0] and "1" in bad[0]  # names the vertex (0, 1)

    def test_blowup_polytope_delzant(self):
        assert delzant_verify(blowup_moment_data().polytope) == []


class TestSpecialPoint:
    def test_cp2(self):
        md = projective_moment_data(2)
        assert md.kappa == Fr(1, 3)
        assert special_point(md) == (0, 0)

    def test_product_of_spheres(self):
        md = product_of_spheres_moment_data()
        assert md.kappa == Fr(1, 2)
        assert special_point(md) == (0, 0)

    def test_blowup_interior_and_average(self):
        md = blowup_moment_data()
        spec = special_point(md)
        assert spec == (Fr(-1, 12), Fr(-1, 12))
        assert md.polytope.strictly_contains(spec)
        m = len(md.polytope.vertices)
        avg = tuple(sum(v[i] for v in md.polytope.vertices) / Fr(m)
                    for i in range(2))
        assert avg == spec

    def test_vertex_disagreement_reported(self):
        # wrong kappa: the per-vertex values differ
        md = MomentData(projective_moment_data(2).polytope, kappa=Fr(1, 2))
        with pytest.raises(ToricError, match="per-vertex"):
            special_point(md)

    def test_unnormalized_translates(self):
        md = MomentData(simplex_polytope(2), kappa=Fr(1, 3))
        spec = special_point(md)
        assert spec == (Fr(1, 3), Fr(1, 3))

    def test_requires_kappa(self):
        md = MomentData(simplex_polytope(2))
        with pytest.raises(ToricError, match="kappa"):
            special_point(md)


class TestDisplaceability:
    def test_threshold_exact(self):
        for n in range(1, 5):
            md = projective_moment_data(n)
            thr = Fr(n, n + 1)
            below = ball_subpolytope(n, thr - Fr(1, 50))
            at = ball_subpolytope(n, thr)
            assert stable_displaceability_certificate(md, below) is not None
            assert stable_displaceability_certificate(md, at) is None
            if thr + Fr(1, 50) <= 1:
                above = ball_subpolytope(n, thr + Fr(1, 50))
                assert stable_displaceability_certificate(md, above) is None

    def test_origin_inside(self):
        md = projective_moment_data(2)
        body = ConvexBody([(Fr(-1, 5), Fr(-1, 5)), (Fr(1, 5), 0), (0, Fr(1, 5))])
        assert stable_displaceability_certificate(md, body) is None

    def test_single_point(self):
        md = projective_moment_data(2)
        p = (Fr(1, 5), Fr(1, 10))
        cert = stable_displaceability_certificate(md, ConvexBody([p]))
        assert cert is not None
        assert sum(c * x for c, x in zip(cert, p)) > 0

    def test_boundary_case_origin_on_face(self):
        # segment with 0 as an endpoint: contained, no certificate
        md = projective_moment_data(1)
        body = ConvexBody([(0,), (Fr(1, 4),)])
        assert stable_displaceability_certificate(md, body) is None

    def test_requires_compressible(self):
        md = blowup_moment_data()
        with pytest.raises(ToricError, match="compressible"):
            stable_displaceability_certificate(md, ConvexBody([(Fr(1, 5), 0)]))

    def test_body_outside_polytope(self):
        md = projective_moment_data(2)
        with pytest.raises(ToricError, match="outside"):
            stable_displaceability_certificate(md, ConvexBody([(5, 5)]))

    def test_repeated_generator_keeps_certificate(self):
        md = builtin_moment_data("cpn2")
        body = ball_subpolytope(2, Fr(1, 3))
        repeated = ConvexBody((body.generators[0],) + body.generators)
        assert stable_displaceability_certificate(md, body) == (-1, -1)
        assert stable_displaceability_certificate(md, repeated) == (-1, -1)

    def test_lower_dimensional_body(self):
        md = projective_moment_data(2)
        seg = ConvexBody([(Fr(1, 8), Fr(1, 8)), (Fr(1, 7), Fr(1, 7))])
        cert = stable_displaceability_certificate(md, seg)
        assert cert is not None
        for g in seg.generators:
            assert sum(c * x for c, x in zip(cert, g)) > 0


class TestBallSubpolytope:
    def test_r_one_is_whole_simplex(self):
        body = ball_subpolytope(2, 1)
        md = projective_moment_data(2)
        assert sorted(body.generators) == sorted(md.polytope.vertices)

    def test_boundary_membership(self):
        for n in (1, 2, 3):
            body = ball_subpolytope(n, Fr(n, n + 1))
            assert body.contains(tuple([0] * n))
            smaller = ball_subpolytope(n, Fr(n, n + 1) - Fr(1, 100))
            assert not smaller.contains(tuple([0] * n))

    def test_range_check(self):
        with pytest.raises(ToricError):
            ball_subpolytope(2, 0)
        with pytest.raises(ToricError):
            ball_subpolytope(2, Fr(3, 2))


class TestFiberStatus:
    def test_special_fiber(self):
        md = projective_moment_data(2)
        rep = fiber_status(md, (0, 0))
        assert rep["status"] == "superheavy_special"

    def test_compressible_off_center(self):
        md = projective_moment_data(2)
        rep = fiber_status(md, (Fr(1, 5), 0))
        assert rep["status"] == "stably_displaceable"
        assert rep["certificate"] is not None

    def test_noncompressible_unknown(self):
        md = blowup_moment_data()
        rep = fiber_status(md, (0, 0))
        assert rep["status"] == "unknown"

    def test_outside_errors(self):
        md = projective_moment_data(2)
        with pytest.raises(ToricError, match="outside"):
            fiber_status(md, (2, 2))


class TestRationalGeometry:
    def test_centroid_of_chopped_simplex(self):
        pts = [(1, 0), (3, 0), (0, 3), (0, 1)]
        c, vol = centroid_and_volume([tuple(map(Fr, p)) for p in pts], 2)
        assert vol == Fr(4)
        assert c == (Fr(13, 12), Fr(13, 12))

    def test_point_in_hull(self):
        tri = [(0, 0), (1, 0), (0, 1)]
        assert point_in_hull((Fr(1, 4), Fr(1, 4)), [tuple(map(Fr, p)) for p in tri], 2)
        assert not point_in_hull((1, 1), [tuple(map(Fr, p)) for p in tri], 2)
        # boundary
        assert point_in_hull((Fr(1, 2), 0), [tuple(map(Fr, p)) for p in tri], 2)

    def test_separating_functional_sound(self):
        pts = [(Fr(1, 3), Fr(1, 5)), (Fr(2, 5), Fr(1, 2)), (Fr(1, 2), Fr(1, 7))]
        f = separating_functional(pts, 2)
        assert f is not None
        assert all(sum(c * x for c, x in zip(f, p)) > 0 for p in pts)

    def test_no_certificate_when_zero_inside(self):
        pts = [(Fr(-1, 2), 0), (Fr(1, 2), Fr(1, 3)), (Fr(1, 4), Fr(-1, 3))]
        assert separating_functional(pts, 2) is None

    def test_repeated_point_leaves_origin_outside(self):
        pts = [(1, 1), (2, 1), (1, 2)]
        assert not point_in_hull((0, 0), pts, 2)
        assert not point_in_hull((0, 0), pts + [(1, 1)], 2)

    def test_hull_edges_with_integer_normals(self):
        # 29 edges, confirmed by an LP: a pair is an edge iff every convex
        # representation of its midpoint puts all weight on the pair
        pts = [(2, -3, -2, 2), (2, -1, 2, 2), (0, 1, 3, -3), (-3, 0, 3, 1), (2, 3, -1, -3),
               (1, 0, 1, 3), (2, -2, -1, -1), (1, 0, 3, 1), (0, -2, 2, 3)]
        assert hull_edges(pts, convex_hull_facets(pts, 4), 4) == [
            (0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 8), (1, 2), (1, 4), (1, 5), (1, 6),
            (1, 7), (1, 8), (2, 3), (2, 4), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6),
            (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (5, 7), (5, 8), (6, 8), (7, 8)]

    def test_det(self):
        assert mat_det([[Fr(1), Fr(2)], [Fr(3), Fr(4)]]) == -2


def test_builtin_registry():
    for name in ("cpn1", "cpn2", "cpn3", "cpn4", "s2xs2", "blowup"):
        md = builtin_moment_data(name)
        assert delzant_verify(md.polytope) == []
    with pytest.raises(KeyError):
        builtin_moment_data("nope")


# ---------------------------------------------------------------------------
# dimension 1 on the generic hull path, against the special cases it replaced

def reference_extreme_points(points):
    xs = [Fr(p[0]) for p in points]
    return sorted({xs.index(min(xs)), xs.index(max(xs))})


def reference_separating_functional(points):
    xs = [Fr(p[0]) for p in points]
    if not xs or 0 in xs:
        return None
    if min(xs) > 0:
        return (Fr(1),)
    if max(xs) < 0:
        return (Fr(-1),)
    return None


def reference_interval(vertices):
    """(facets, edges, centroid, volume) of a segment, as DelzantPolytope
    built them for dimension 1."""
    xs = sorted(Fr(v[0]) for v in vertices)
    facets = (((Fr(1),), xs[0]), ((Fr(-1),), -xs[1]))
    return facets, ((0, 1),), ((xs[0] + xs[1]) / 2,), xs[1] - xs[0]


def seeded_rational(rng, lo, hi):
    return Fr(rng.randint(lo, hi), rng.choice((1, 2, 3, 5)))


def seeded_line_points(rng, sign):
    """2-6 points on a line: sign +1 all positive, -1 all negative, 0 mixed
    (both signs present), None containing the origin; often with a repeat."""
    count = rng.randint(2, 6)
    if sign == 0:
        xs = [seeded_rational(rng, 1, 9), -seeded_rational(rng, 1, 9)]
        xs += [seeded_rational(rng, -9, 9) for _ in range(count - 2)]
    elif sign is None:
        xs = [Fr(0)] + [seeded_rational(rng, -9, 9) for _ in range(count - 1)]
    else:
        xs = [sign * seeded_rational(rng, 1, 9) for _ in range(count)]
    if rng.random() < 0.5:
        xs.append(rng.choice(xs))
    rng.shuffle(xs)
    return [(x,) for x in xs]


class TestOneDimensionalPath:
    @pytest.mark.parametrize("sign", [1, -1, 0, None])
    def test_separating_functional_matches_reference(self, sign):
        rng = random.Random(f"sep-1d/{sign}")
        for _ in range(40):
            pts = seeded_line_points(rng, sign)
            got = separating_functional(pts, 1)
            assert got == reference_separating_functional(pts), pts
            assert (got is None) == (sign not in (1, -1))

    def test_separating_functional_on_a_line_in_the_plane(self):
        # a rank-1 point set in dimension 2 is solved on its span, in dimension 1
        rng = random.Random("sep-1d/plane")
        for sign in (1, -1, 0, None):
            for _ in range(10):
                pts = [(x, 2 * x) for (x,) in seeded_line_points(rng, sign)]
                f = separating_functional(pts, 2)
                if sign in (1, -1):
                    assert all(f[0] * x + f[1] * y > 0 for x, y in pts), pts
                else:
                    assert f is None, pts

    def test_extreme_points_match_reference_on_distinct_points(self):
        rng = random.Random("extreme-1d")
        for _ in range(40):
            pts = [(x,) for x in {seeded_rational(rng, -9, 9) for _ in range(rng.randint(2, 7))}]
            if len(pts) < 2:
                continue
            assert extreme_points(pts, 1) == reference_extreme_points(pts), pts

    def test_segments_match_reference(self):
        rng = random.Random("segment-1d")
        for _ in range(40):
            a, b = seeded_rational(rng, -9, 9), seeded_rational(rng, -9, 9)
            if a == b:
                continue
            p = DelzantPolytope(1, [(a,), (b,)])
            facets, edges, centroid, volume = reference_interval(p.vertices)
            assert set(p.facets) == set(facets)
            assert p.edges == edges
            assert p.centroid() == centroid and p.volume() == volume
            for _ in range(5):
                x = (seeded_rational(rng, -10, 10),)
                assert p.contains(x) == all(n[0] * x[0] >= c for n, c in facets)
            for x in (a, b):
                assert p.contains((x,)) and not p.strictly_contains((x,))

    def test_hull_facets_of_a_segment(self):
        # sorted, with int normals as in every other dimension
        assert convex_hull_facets([(0,), (2,), (5,)], 1) == [
            ((-1,), -5, frozenset({2})), ((1,), 0, frozenset({0}))]
        assert all(type(x) is int for n, c, mem in convex_hull_facets([(3,), (1,)], 1) for x in n)
        assert DelzantPolytope(1, [(3,), (1,)]).facets == (((-1,), -3), ((1,), 1))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ToricError, match="duplicate points"):
            DelzantPolytope(1, [(1,), (1,)])

    def test_interior_point_not_extreme(self):
        with pytest.raises(ToricError, match="not all extreme: indices \\[1\\]"):
            DelzantPolytope(1, [(0,), (1,), (2,)])

    def test_triangulation_fans_from_an_interior_first_point(self):
        pts = [(Fr(2),), (Fr(0),), (Fr(5),)]
        assert sorted(triangulate(pts, 1)) == [(0, 1), (0, 2)]
        assert centroid_and_volume(pts, 1) == ((Fr(5, 2),), Fr(5))
