"""Exact linear algebra and convex hulls over the rationals (dimensions 1-4, one path)."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .linalg import _RATIONALS, _det, _echelon, _nullspace, _solve


def frac_vec(v):
    return tuple(Fraction(x) for x in v)


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(a, c):
    c = Fraction(c)
    return tuple(c * x for x in a)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def mat_rank(rows) -> int:
    rows = [list(map(Fraction, r)) for r in rows]
    return len(_echelon(_RATIONALS, rows, len(rows[0]))) if rows else 0


def mat_det(rows) -> Fraction:
    return _det(_RATIONALS, [list(map(Fraction, r)) for r in rows])


def solve_linear(rows, rhs):
    """One rational solution of rows * x = rhs, or None."""
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    rows = [list(map(Fraction, r)) for r in rows]
    x = _solve(_RATIONALS, rows, [[Fraction(y)] for y in rhs])
    return None if x is None else [y for y, in x]


def nullspace_basis(rows):
    """Basis of the rational kernel of the matrix."""
    if not rows:
        return []
    return [tuple(v) for v in _nullspace(_RATIONALS, [list(map(Fraction, r)) for r in rows])]


def primitive_vector(v):
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    v = frac_vec(v)
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive form")
    denom = 1
    for x in v:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _hyperplane_through(points):
    """(normal, offset) of the affine hyperplane through the points, or None
    if they do not span one."""
    base = points[0]
    rows = [vec_sub(p, base) for p in points[1:]] or [[0] * len(base)]
    kern = nullspace_basis(rows)
    # kernel of the (k-1) x k difference matrix (one zero row for k = 1,
    # one point on a line): need exactly 1 dimension
    if len(kern) != 1:
        return None
    normal = kern[0]
    return tuple(normal), dot(normal, base)


class HullError(ValueError):
    pass


def convex_hull_facets(points, dim=None):
    """Facets of the convex hull of full-dimensional rational points.

    Returns a list of (inward_normal, offset, frozenset(vertex indices)),
    the inward normal being a primitive integer vector with
    <n, x> >= offset on the hull.  Enumeration over affinely independent
    k-subsets, one path for every dimension 1 to 4; the cost grows as
    C(len(points), k) * len(points), so it is meant for desk-scale inputs.
    """
    pts = [frac_vec(p) for p in points]
    if not pts:
        raise HullError("no points")
    k = dim if dim is not None else len(pts[0])
    if k > 4:
        raise HullError("convex hull supported only up to dimension 4")
    if len(set(pts)) != len(pts):
        raise HullError("duplicate points")
    base_rows = [vec_sub(p, pts[0]) for p in pts[1:]]
    if mat_rank(base_rows) != k:
        raise HullError("points are not full-dimensional")
    facets = {}
    for subset in itertools.combinations(range(len(pts)), k):
        hp = _hyperplane_through([pts[i] for i in subset])
        if hp is None:
            continue
        normal, offset = hp
        vals = [dot(normal, p) - offset for p in pts]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            normal = tuple(-x for x in normal)
            vals = [-v for v in vals]
        else:
            continue
        normal = primitive_vector(normal)
        offset = dot(normal, pts[subset[0]])
        members = frozenset(i for i, p in enumerate(pts) if dot(normal, p) == offset)
        facets[(normal, offset)] = members
    if not facets:
        raise HullError("no supporting hyperplanes found")
    return [(n, c, mem) for (n, c), mem in sorted(facets.items())]


def extreme_points(points, dim=None):
    """Indices of the points that are vertices of the hull (active-normal rank k)."""
    pts = [frac_vec(p) for p in points]
    k = dim if dim is not None else len(pts[0])
    return extreme_indices(convex_hull_facets(pts, k), len(pts), k)


def extreme_indices(facets, count, dim):
    """Indices in range(count) of the points whose active facet normals
    (from convex_hull_facets) have rank dim, i.e. the vertices of the hull."""
    out = []
    for i in range(count):
        active = [n for (n, c, mem) in facets if i in mem]
        if active and mat_rank(active) == dim:
            out.append(i)
    return out


def hull_edges(points, facets, dim):
    """Vertex-index pairs forming 1-faces: active shared normals have rank dim-1."""
    edges = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            shared = [n for (n, c, mem) in facets if i in mem and j in mem]
            if mat_rank(shared) == dim - 1:
                edges.append((i, j))
    return edges


def triangulate(points, dim):
    """Triangulation of the hull into simplices (tuples of point indices).

    Fans from the first vertex over recursively triangulated facets.
    """
    pts = [frac_vec(p) for p in points]
    k = dim
    if len(pts) == k + 1:
        return [tuple(range(len(pts)))]
    facets = convex_hull_facets(pts, k)
    apex = 0
    simplices = []
    for normal, offset, members in facets:
        if apex in members:
            continue
        mem = sorted(members)
        face_pts = [pts[i] for i in mem]
        # project out a coordinate where the normal is nonzero
        drop = next(i for i, x in enumerate(normal) if x != 0)
        proj = [tuple(x for i, x in enumerate(p) if i != drop) for p in face_pts]
        for simplex in triangulate(proj, k - 1):
            simplices.append(tuple([apex] + [mem[i] for i in simplex]))
    return simplices


def simplex_volume(vertices):
    k = len(vertices) - 1
    rows = [vec_sub(v, vertices[0]) for v in vertices[1:]]
    d = mat_det(rows)
    f = Fraction(abs(d))
    return f / math.factorial(k)


def centroid_and_volume(points, dim):
    """Exact Lebesgue centroid and volume of the hull via fan triangulation."""
    pts = [frac_vec(p) for p in points]
    total = Fraction(0)
    acc = [Fraction(0)] * dim
    for simplex in triangulate(pts, dim):
        verts = [pts[i] for i in simplex]
        vol = simplex_volume(verts)
        if vol == 0:
            continue
        c = [sum(v[i] for v in verts) / Fraction(len(verts)) for i in range(dim)]
        total += vol
        for i in range(dim):
            acc[i] += vol * c[i]
    if total == 0:
        raise HullError("degenerate polytope (zero volume)")
    return tuple(a / total for a in acc), total


def separating_functional(points, dim):
    """Rational linear functional strictly positive on conv(points), or None
    if the origin lies in the hull.

    Works inside the linear span of the points: the origin is outside the
    hull iff it is a vertex of conv(points + {0}), in which case the sum of
    the inward normals of the facets through 0 is strictly positive on
    every input point.
    """
    # convex_hull_facets rejects repeated points, so merge them first
    pts = list(dict.fromkeys(frac_vec(p) for p in points))
    if not pts:
        return None
    if any(all(x == 0 for x in p) for p in pts):
        return None
    # restrict to the linear span of the points
    rank = mat_rank(pts)
    if rank < dim:
        basis = []
        for p in pts:
            if mat_rank(basis + [p]) > len(basis):
                basis.append(p)
        coords = []
        for p in pts:
            sol = solve_linear([[basis[j][i] for j in range(rank)] for i in range(dim)], list(p))
            if sol is None:
                raise HullError("span computation failed")
            coords.append(tuple(sol))
        f_sub = separating_functional(coords, rank)
        if f_sub is None:
            return None
        # extend to the ambient space: find c with <c, basis_j> = f_sub_j
        rows = [list(b) for b in basis]
        c = solve_linear(rows, list(f_sub))
        if c is None:
            raise HullError("functional extension failed")
        return tuple(c)

    cloud = pts + [tuple(Fraction(0) for _ in range(dim))]
    zero_idx = len(pts)
    facets = convex_hull_facets(cloud, dim)
    active = [(n, c, mem) for (n, c, mem) in facets if zero_idx in mem]
    if not active:
        return None  # origin interior
    if mat_rank([n for n, c, mem in active]) < dim:
        return None  # origin on a positive-dimensional face
    f = [Fraction(0)] * dim
    for n, c, mem in active:
        for i in range(dim):
            f[i] += n[i]
    if all(dot(f, p) > 0 for p in pts):
        return tuple(f)
    return None


def point_in_hull(point, points, dim):
    """Exact membership of a rational point in conv(points)."""
    q = frac_vec(point)
    shifted = [vec_sub(p, q) for p in points]
    return separating_functional(shifted, dim) is None
