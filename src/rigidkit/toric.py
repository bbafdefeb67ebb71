"""Delzant polytope analysis: normalization, vertex checks, the special
point, displaceability certificates and fiber classification.

All computations are exact over the rationals; every dimension 1 to 4
takes the same convex-hull path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rational_geometry import (
    HullError,
    centroid_and_volume,
    convex_hull_facets,
    dot,
    extreme_indices,
    frac_vec,
    hull_edges,
    mat_det,
    point_in_hull,
    primitive_vector,
    separating_functional,
    vec_add,
    vec_scale,
    vec_sub,
)


class ToricError(ValueError):
    pass


class DelzantPolytope:
    """Full-dimensional rational polytope given by its vertex list.

    Facets (primitive inward normals and offsets) and edges are derived by
    exact convex-hull computation; every listed vertex must be extreme.
    """

    def __init__(self, dimension, vertices):
        self.dimension = int(dimension)
        if self.dimension < 1:
            raise ToricError("dimension must be >= 1")
        if self.dimension > 4:
            raise ToricError("polytopes supported only up to dimension 4")
        vs = [frac_vec(v) for v in vertices]
        for v in vs:
            if len(v) != self.dimension:
                raise ToricError("vertex coordinate count mismatch")
        if len(vs) < self.dimension + 1:
            raise ToricError("too few vertices for a full-dimensional polytope")
        try:
            raw = convex_hull_facets(vs, self.dimension)
        except HullError as e:
            raise ToricError(str(e)) from e
        ext = extreme_indices(raw, len(vs), self.dimension)
        if sorted(ext) != list(range(len(vs))):
            bad = [i for i in range(len(vs)) if i not in ext]
            raise ToricError(
                f"listed points are not all extreme: indices {bad}")
        self.vertices = tuple(vs)
        self.facets = tuple((n, c) for n, c, mem in raw)
        self.edges = tuple(hull_edges(vs, raw, self.dimension))

    def contains(self, point) -> bool:
        p = frac_vec(point)
        return all(dot(n, p) >= c for n, c in self.facets)

    def strictly_contains(self, point) -> bool:
        p = frac_vec(point)
        return all(dot(n, p) > c for n, c in self.facets)

    def edges_at(self, vertex_index):
        out = []
        for i, j in self.edges:
            if i == vertex_index:
                out.append(j)
            elif j == vertex_index:
                out.append(i)
        return out

    def edge_directions(self, vertex_index):
        """Primitive integer directions of the edges leaving the vertex."""
        v = self.vertices[vertex_index]
        return [primitive_vector(vec_sub(self.vertices[j], v))
                for j in self.edges_at(vertex_index)]

    def translate(self, shift) -> "DelzantPolytope":
        s = frac_vec(shift)
        return DelzantPolytope(self.dimension,
                               [vec_add(v, s) for v in self.vertices])

    def scale(self, factor) -> "DelzantPolytope":
        return DelzantPolytope(self.dimension,
                               [vec_scale(v, factor) for v in self.vertices])

    def centroid(self):
        c, _ = centroid_and_volume(list(self.vertices), self.dimension)
        return c

    def volume(self):
        _, vol = centroid_and_volume(list(self.vertices), self.dimension)
        return vol

    def __eq__(self, other):
        if not isinstance(other, DelzantPolytope):
            return NotImplemented
        return (self.dimension == other.dimension
                and sorted(self.vertices) == sorted(other.vertices))

    def __repr__(self):
        return f"DelzantPolytope(dim={self.dimension}, {len(self.vertices)} vertices)"


@dataclass
class MomentData:
    polytope: DelzantPolytope
    kappa: Fraction = None
    compressible: bool = False

    def __post_init__(self):
        if self.kappa is not None:
            self.kappa = Fraction(self.kappa)
            if self.kappa <= 0:
                raise ToricError("kappa must be positive")


@dataclass
class ConvexBody:
    """V-representation of a rational convex body (hull of the generators)."""
    generators: tuple

    def __init__(self, generators):
        gens = tuple(frac_vec(g) for g in generators)
        if not gens:
            raise ToricError("convex body needs at least one generator")
        if len({len(g) for g in gens}) != 1:
            raise ToricError("generator dimension mismatch")
        object.__setattr__(self, "generators", gens)

    @property
    def dimension(self):
        return len(self.generators[0])

    def contains(self, point) -> bool:
        return point_in_hull(point, list(self.generators), self.dimension)


# ---------------------------------------------------------------------------
# operations

def normalize(p: DelzantPolytope):
    """Translate so the exact Lebesgue centroid sits at the origin.

    Returns (normalized polytope, shift w) with normalized = p + w.
    """
    c = p.centroid()
    w = tuple(-x for x in c)
    return p.translate(w), w


def delzant_verify(p: DelzantPolytope):
    """Check the vertex condition: primitive edge directions form a lattice basis.

    Returns a list of diagnostics (empty = Delzant): each failing vertex is
    reported with its edge-direction matrix and determinant.
    """
    bad = []
    k = p.dimension
    for i, v in enumerate(p.vertices):
        dirs = p.edge_directions(i)
        if len(dirs) != k:
            bad.append(f"vertex {i} {tuple(map(str, v))}: {len(dirs)} edges, expected {k}")
            continue
        d = mat_det(dirs)
        if abs(d) != 1:
            bad.append(
                f"vertex {i} {tuple(map(str, v))}: |det| = {abs(d)}, directions {dirs}")
    return bad


def special_point(m: MomentData):
    """The point x + kappa * sum(edge directions), checked at every vertex.

    All vertices must give the same point (the combinatorial certificate of
    monotonicity for this kappa) and the result must agree with the vertex
    average and lie strictly inside the polytope.
    """
    if m.kappa is None:
        raise ToricError("special point needs the monotonicity constant kappa")
    p = m.polytope
    bad = delzant_verify(p)
    if bad:
        raise ToricError("polytope is not Delzant: " + "; ".join(bad))
    values = []
    for i, v in enumerate(p.vertices):
        acc = list(v)
        for d in p.edge_directions(i):
            for t in range(p.dimension):
                acc[t] += m.kappa * d[t]
        values.append(tuple(acc))
    first = values[0]
    if any(val != first for val in values[1:]):
        detail = ", ".join(f"v{i}: {tuple(map(str, val))}" for i, val in enumerate(values))
        raise ToricError(f"kappa is not monotone for this polytope; per-vertex values: {detail}")
    mcount = len(p.vertices)
    avg = tuple(sum(v[t] for v in p.vertices) / Fraction(mcount)
                for t in range(p.dimension))
    if avg != first:
        raise ToricError(
            f"vertex-average cross-check failed: formula {first}, average {avg}")
    if not p.strictly_contains(first):
        raise ToricError(f"special point {first} is not interior")
    return first


def stable_displaceability_certificate(m: MomentData, body: ConvexBody):
    """Rational linear functional strictly positive on the body, or None.

    Present exactly when the origin is outside the body; requires the
    compressible flag (the hypothesis under which positivity of the pulled
    back Hamiltonian displaces the preimage) and the body inside the
    polytope.  The certificate is re-verified on the generators before it
    is returned.
    """
    if not m.compressible:
        raise ToricError("certificate requires a compressible action (set the flag)")
    p = m.polytope
    if body.dimension != p.dimension:
        raise ToricError("body/polytope dimension mismatch")
    for g in body.generators:
        if not p.contains(g):
            raise ToricError(f"body generator {tuple(map(str, g))} outside the polytope")
    f = separating_functional(list(body.generators), p.dimension)
    if f is None:
        return None
    for g in body.generators:
        if dot(f, g) <= 0:
            raise ToricError("internal error: certificate fails on a generator")
    return f


def ball_subpolytope(n: int, r) -> ConvexBody:
    """The scaled shifted standard simplex r*conv(0, e_1..e_n) - (1..1)/(n+1).

    Contains the origin exactly when r >= n/(n+1).  Like polytopes, n runs
    from 1 to 4.
    """
    if not 1 <= n <= 4:
        raise ToricError(f"ball dimension must be 1 to 4, got {n}")
    r = Fraction(r)
    if not 0 < r <= 1:
        raise ToricError("need 0 < r <= 1")
    w = tuple(Fraction(-1, n + 1) for _ in range(n))
    gens = [w]
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = r
        gens.append(vec_add(tuple(e), w))
    return ConvexBody(gens)


def fiber_status(m: MomentData, point):
    """Classify the fiber over a point of the polytope.

    The special point's fiber is the rigid one; for compressible data any
    other point admits a displaceability certificate; everything else is
    reported unknown (whether the special fiber of a non-compressible
    action is the only rigid one is open).
    """
    p = frac_vec(point)
    if not m.polytope.contains(p):
        raise ToricError(f"point {tuple(map(str, p))} outside the polytope")
    spec = None
    if m.kappa is not None:
        spec = special_point(m)
    if spec is not None and p == spec:
        return {"status": "superheavy_special", "point": p, "special_point": spec}
    if m.compressible:
        zero = tuple(Fraction(0) for _ in range(m.polytope.dimension))
        if p != zero:
            if m.polytope.centroid() != zero:
                raise ToricError(
                    "compressible test requires normalized data (centroid at the origin)")
            cert = stable_displaceability_certificate(m, ConvexBody([p]))
            if cert is not None:
                return {"status": "stably_displaceable", "point": p, "certificate": cert}
    return {"status": "unknown", "point": p, "special_point": spec}


# ---------------------------------------------------------------------------
# built-in moment data

def simplex_polytope(n: int, scale=1) -> DelzantPolytope:
    """Standard simplex conv(0, scale*e_1, ..., scale*e_n)."""
    zero = tuple(Fraction(0) for _ in range(n))
    verts = [zero]
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(scale)
        verts.append(tuple(e))
    return DelzantPolytope(n, verts)


def projective_moment_data(n: int) -> MomentData:
    """Normalized moment data of complex projective n-space, kappa = 1/(n+1).

    The simplex with side 1 normalized to centroid 0; the torus action is
    compressible and the special point is the origin.
    """
    p, _ = normalize(simplex_polytope(n))
    return MomentData(p, kappa=Fraction(1, n + 1), compressible=True)


def product_of_spheres_moment_data() -> MomentData:
    """Normalized square [-1/2, 1/2]^2 with kappa = 1/2 (two sphere factors)."""
    h = Fraction(1, 2)
    p = DelzantPolytope(2, [(-h, -h), (h, -h), (-h, h), (h, h)])
    return MomentData(p, kappa=h, compressible=True)


def blowup_moment_data() -> MomentData:
    """Normalized corner chop of the side-3 simplex at depth 1, kappa = 1.

    Standard equivariant one-point blow-up data; its special point differs
    from the barycenter and the action is not compressible.
    """
    raw = DelzantPolytope(2, [(1, 0), (3, 0), (0, 3), (0, 1)])
    p, _ = normalize(raw)
    return MomentData(p, kappa=Fraction(1), compressible=False)


BUILTIN_MOMENT_DATA = {}


def builtin_moment_data(name: str) -> MomentData:
    if not BUILTIN_MOMENT_DATA:
        for n in range(1, 5):
            BUILTIN_MOMENT_DATA[f"cpn{n}"] = projective_moment_data(n)
        BUILTIN_MOMENT_DATA["s2xs2"] = product_of_spheres_moment_data()
        BUILTIN_MOMENT_DATA["blowup"] = blowup_moment_data()
    if name not in BUILTIN_MOMENT_DATA:
        raise KeyError(f"unknown built-in moment data {name!r}; known: {sorted(BUILTIN_MOMENT_DATA)}")
    return BUILTIN_MOMENT_DATA[name]
