"""Model partial quasi-state on a moment polytope.

On pullbacks of functions on the polytope the functional is evaluation at
the special point: piecewise-linear test functions with rational data keep
every axiom check exact, while the Fourier lattice-sum demo runs in floats
and is quarantined in :func:`fourier_reduction_demo`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rational_geometry import dot, frac_vec, solve_linear, vec_sub
from .toric import (
    ConvexBody,
    MomentData,
    ToricError,
    special_point,
    stable_displaceability_certificate,
)


class QStateError(ValueError):
    pass


class PLFunction:
    """Piecewise-linear function on a simplicial complex with rational data.

    vertices: rational points; simplices: index tuples (k+1 per simplex);
    values: one rational per vertex.  Continuity holds by construction on a
    conforming complex; a hanging-vertex scan rejects non-conforming input.
    """

    def __init__(self, vertices, simplices, values, check=True):
        self.vertices = tuple(frac_vec(v) for v in vertices)
        if not self.vertices:
            raise QStateError("no vertices")
        self.dim = len(self.vertices[0])
        self.simplices = tuple(tuple(int(i) for i in s) for s in simplices)
        self.values = tuple(Fraction(v) for v in values)
        if len(self.values) != len(self.vertices):
            raise QStateError("one value per vertex required")
        for s in self.simplices:
            if len(s) != self.dim + 1:
                raise QStateError("each simplex needs dim+1 vertices")
            if any(i < 0 or i >= len(self.vertices) for i in s):
                raise QStateError("simplex index out of range")
        if check:
            self._check_conforming()

    def _check_conforming(self):
        for si, s in enumerate(self.simplices):
            pts = [self.vertices[i] for i in s]
            for vi, v in enumerate(self.vertices):
                if vi in s:
                    continue
                bc = _barycentric(pts, v)
                if bc is not None and all(x >= 0 for x in bc):
                    raise QStateError(
                        f"hanging vertex {vi} inside simplex {si}: non-conforming triangulation")

    def evaluate(self, point):
        """Exact value at a rational point of the domain."""
        p = frac_vec(point)
        for s in self.simplices:
            pts = [self.vertices[i] for i in s]
            bc = _barycentric(pts, p)
            if bc is not None and all(x >= 0 for x in bc):
                return sum(b * self.values[i] for b, i in zip(bc, s))
        raise QStateError(f"point {tuple(map(str, p))} outside the triangulated domain")

    def same_triangulation(self, other: "PLFunction") -> bool:
        return (self.vertices == other.vertices
                and self.simplices == other.simplices)

    def map_values(self, fn) -> "PLFunction":
        return PLFunction(self.vertices, self.simplices,
                          [fn(v) for v in self.values], check=False)

    def scale(self, alpha) -> "PLFunction":
        alpha = Fraction(alpha)
        return self.map_values(lambda v: alpha * v)

    def add_constant(self, c) -> "PLFunction":
        c = Fraction(c)
        return self.map_values(lambda v: v + c)

    def __add__(self, other):
        if not self.same_triangulation(other):
            raise QStateError("summands must share a triangulation")
        return PLFunction(self.vertices, self.simplices,
                          [a + b for a, b in zip(self.values, other.values)],
                          check=False)

    def __le__(self, other):
        """Pointwise comparison, decided on the shared triangulation vertices."""
        if not self.same_triangulation(other):
            raise QStateError("comparison requires a shared triangulation")
        return all(a <= b for a, b in zip(self.values, other.values))

    def support_vertices(self):
        """Vertices of every simplex touching a nonzero value."""
        out = set()
        for s in self.simplices:
            if any(self.values[i] != 0 for i in s):
                out.update(s)
        return sorted(out)


def _barycentric(simplex_points, p):
    """Barycentric coordinates of p in the simplex, or None if degenerate."""
    k = len(p)
    rows = [[simplex_points[j][i] for j in range(k + 1)] for i in range(k)]
    rows.append([Fraction(1)] * (k + 1))
    rhs = list(p) + [Fraction(1)]
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    # solve_linear returns some solution; for a genuine simplex the system
    # is square nonsingular, so it is the barycentric tuple
    recon = [sum(sol[j] * simplex_points[j][i] for j in range(k + 1)) for i in range(k)]
    if tuple(recon) != tuple(p) or sum(sol) != 1:
        return None
    return sol


def fan_triangulation(md: MomentData):
    """Conforming triangulation of the moment polytope fanned from vertex 0."""
    from .rational_geometry import triangulate
    p = md.polytope
    simplices = triangulate(list(p.vertices), p.dimension)
    return list(p.vertices), simplices


def barycentric_refine(vertices, simplices):
    """One barycentric subdivision (exact, conforming)."""
    verts = [tuple(v) for v in vertices]
    index = {v: i for i, v in enumerate(verts)}

    def vertex_id(point):
        if point not in index:
            index[point] = len(verts)
            verts.append(point)
        return index[point]

    def barycenter(idxs):
        k = len(verts[0])
        return tuple(sum(verts[i][t] for i in idxs) / Fraction(len(idxs))
                     for t in range(k))

    new_simplices = []
    for s in simplices:
        for perm in itertools.permutations(s):
            chain = [vertex_id(barycenter(perm[:r + 1])) for r in range(len(s))]
            new_simplices.append(tuple(chain))
    return verts, new_simplices


@dataclass
class ModelState:
    """Evaluation functional at the special point of monotone moment data."""
    moment: MomentData

    def __post_init__(self):
        self.p_spec = special_point(self.moment)


def zeta(state: ModelState, f: PLFunction) -> Fraction:
    """Exact value of the model functional: f evaluated at the special point."""
    return f.evaluate(state.p_spec)


def model_heavy(state: ModelState, bodies) -> dict:
    """Membership test of the special point in a body or finite union.

    For the evaluation functional on pullback test functions, heaviness and
    superheaviness of a closed union both reduce to containing the special
    point; the report names that restricted test class.
    """
    if isinstance(bodies, ConvexBody):
        bodies = [bodies]
    hit = [i for i, b in enumerate(bodies) if b.contains(state.p_spec)]
    return {
        "heavy": bool(hit),
        "containing_components": hit,
        "test_class": "pullbacks of functions on the moment polytope",
    }


# ---------------------------------------------------------------------------
# the axiom suite

def _random_pl(rng, vertices, simplices, lo=-6, hi=6, denom=7):
    vals = [Fraction(rng.randrange(lo * denom, hi * denom + 1), denom)
            for _ in vertices]
    return PLFunction(vertices, simplices, vals, check=False)


def axiom_suite(state: ModelState, sample=None, trials=50, seed=0) -> dict:
    """Exact verification of the quasi-state axioms on piecewise-linear inputs.

    Checks, for random (or supplied) functions on a shared triangulation of
    the polytope: value 1 on the constant 1, additivity of constants,
    semi-homogeneity for nonnegative rational scalars, monotonicity for
    comparable pairs, the triangle inequality (all pullbacks commute), and
    vanishing on functions supported in a body with a displaceability
    certificate (compressible data only).  Violations are listed with
    witnesses; an empty list means every instance passed.
    """
    import random
    rng = random.Random(seed)
    verts, simps = fan_triangulation(state.moment)
    verts, simps = barycentric_refine(verts, simps)
    violations = []
    checks = {"one": 0, "constants": 0, "semi_homogeneity": 0, "monotone": 0,
              "triangle": 0, "vanishing": 0}

    ones = PLFunction(verts, simps, [Fraction(1)] * len(verts), check=False)
    if zeta(state, ones) != 1:
        violations.append("zeta(1) != 1")
    checks["one"] += 1

    fs = list(sample) if sample else []
    while len(fs) < trials:
        fs.append(_random_pl(rng, verts, simps))

    for i, f in enumerate(fs):
        zf = zeta(state, f)
        alpha = Fraction(rng.randrange(0, 12), rng.randrange(1, 7))
        if zeta(state, f.scale(alpha)) != alpha * zf:
            violations.append(f"semi-homogeneity fails on sample {i}, alpha={alpha}")
        checks["semi_homogeneity"] += 1
        c = Fraction(rng.randrange(-20, 21), rng.randrange(1, 5))
        if zeta(state, f.add_constant(c)) != zf + c:
            violations.append(f"constant additivity fails on sample {i}, c={c}")
        checks["constants"] += 1
        g = fs[(i + 1) % len(fs)]
        if f.same_triangulation(g):
            bump = PLFunction(verts, simps,
                              [v + Fraction(rng.randrange(0, 9), 3) for v in f.values],
                              check=False)
            if not (f <= bump):
                violations.append(f"constructed comparable pair broken on sample {i}")
            if zeta(state, f) > zeta(state, bump):
                violations.append(f"monotonicity fails on sample {i}")
            checks["monotone"] += 1
            if zeta(state, f + g) > zf + zeta(state, g):
                violations.append(f"triangle inequality fails on samples {i},{(i+1)%len(fs)}")
            checks["triangle"] += 1

    if state.moment.compressible:
        # bumps need a complex fine enough that some vertex stars miss the
        # origin (one barycentric refinement keeps the center in every star)
        fverts, fsimps = barycentric_refine(verts, simps)
        zero = tuple(Fraction(0) for _ in range(state.moment.polytope.dimension))
        interior = [vi for vi, v in enumerate(fverts) if v != zero]
        rng.shuffle(interior)
        done = 0
        for vi in interior:
            if done >= max(3, trials // 10):
                break
            vals = [Fraction(0)] * len(fverts)
            vals[vi] = Fraction(rng.randrange(1, 9), 2)
            f = PLFunction(fverts, fsimps, vals, check=False)
            support = [fverts[j] for j in f.support_vertices()]
            body = ConvexBody(support)
            try:
                cert = stable_displaceability_certificate(state.moment, body)
            except ToricError:
                continue
            if cert is None:
                continue
            if zeta(state, f) != 0:
                violations.append(f"vanishing fails for bump at vertex {vi}")
            checks["vanishing"] += 1
            done += 1
        if done == 0:
            violations.append("no certified-displaceable bump found for the vanishing check")

    return {"violations": violations, "checks": checks,
            "status": "ok" if not violations else "violation"}


# ---------------------------------------------------------------------------
# Fourier reduction demo (floating point)

@dataclass
class SmoothSampler:
    """Callback sampler of a compactly supported function on R^k."""
    fn: object              # vectorized callable on arrays of shape (..., k)
    box_lo: tuple
    box_hi: tuple

    @property
    def dim(self):
        return len(self.box_lo)


def gaussian_sampler(center, sigma=1.0, width=8.0) -> SmoothSampler:
    c = np.asarray([float(x) for x in center])
    s = float(sigma)

    def fn(p):
        d = p - c
        return np.exp(-np.sum(d * d, axis=-1) / (2 * s * s))

    lo = tuple(c - width * s)
    hi = tuple(c + width * s)
    return SmoothSampler(fn, lo, hi)


def fourier_reduction_demo(state: ModelState, sampler: SmoothSampler,
                           radius=10.0, eps=0.05, grid=256,
                           refinements=2) -> dict:
    """Lattice sum reconstruction of the functional value at the special point.

    Writes the sampled function as an integral of one-variable waves
    K_v(s) = sin(s) F(v) + cos(s) G(v) over frequencies v, truncates to the
    eps-lattice inside the radius-R ball, and evaluates the model
    functional of each partial sum (the value of the sum at the special
    point, one wave at a time).  Tabulates the error against the direct
    value as eps is refined.
    """
    k = sampler.dim
    if k > 2:
        raise QStateError("demo supports dimension <= 2")
    if radius <= 0 or eps <= 0:
        raise QStateError("radius and eps must be positive")
    p_spec = np.asarray([float(x) for x in state.p_spec])
    lo = np.asarray(sampler.box_lo, dtype=float)
    hi = np.asarray(sampler.box_hi, dtype=float)

    axes = [np.linspace(lo[i], hi[i], grid) for i in range(k)]
    steps = [(hi[i] - lo[i]) / (grid - 1) for i in range(k)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    h_grid = sampler.fn(mesh)
    boundary = _boundary_max(h_grid)
    if boundary > 1e-6 * max(1.0, float(np.max(np.abs(h_grid)))):
        raise QStateError(
            f"sampler does not decay at the support box boundary (max {boundary:.2e})")
    target = float(sampler.fn(p_spec.reshape(1, -1))[0])

    table = []
    value = None
    for level in range(refinements + 1):
        e = eps / (2 ** level)
        value = _lattice_sum_value(h_grid, axes, steps, p_spec, radius, e, k)
        table.append({"eps": e, "radius": radius, "zeta": value,
                      "target": target, "error": abs(value - target)})
    return {
        "zeta": value,
        "direct": target,
        "error": abs(value - target),
        "table": table,
    }


def _boundary_max(h):
    faces = [h[0], h[-1]]
    if h.ndim == 2:
        faces += [h[:, 0], h[:, -1]]
    return float(max(np.max(np.abs(f)) for f in faces))


def _lattice_sum_value(h_grid, axes, steps, p_spec, radius, eps, k):
    """sum over v in eps Z^k with |v| <= R of eps^k K_v(<v, p_spec>).

    K_v(s) = sin(s) F(v) + cos(s) G(v) with F, G the sine and cosine
    transforms of the sampled function, evaluated by trapezoidal quadrature
    through complex exponential matrix products (deterministic pairwise
    summation order inside numpy reductions).
    """
    m = int(math.floor(radius / eps))
    vs = eps * np.arange(-m, m + 1)
    if k == 1:
        phase = np.exp(1j * np.outer(vs, axes[0]))       # (nv, grid)
        w = np.ones_like(axes[0])
        w[0] = w[-1] = 0.5
        coeff = phase @ (h_grid * w) * steps[0] / (2 * math.pi)
        mask = np.abs(vs) <= radius
        s = vs * p_spec[0]
        kv = np.sin(s) * coeff.imag + np.cos(s) * coeff.real
        return float(np.sum(kv[mask]) * eps)
    # k == 2: separable phase matrices around the sampled grid
    w0 = np.ones_like(axes[0]); w0[0] = w0[-1] = 0.5
    w1 = np.ones_like(axes[1]); w1[0] = w1[-1] = 0.5
    e0 = np.exp(1j * np.outer(vs, axes[0])) * (w0 * steps[0])   # (nv, g)
    e1 = np.exp(1j * np.outer(vs, axes[1])) * (w1 * steps[1])
    coeff = e0 @ h_grid @ e1.T / (2 * math.pi) ** 2             # (nv, nv)
    vx, vy = np.meshgrid(vs, vs, indexing="ij")
    mask = vx * vx + vy * vy <= radius * radius
    s = vx * p_spec[0] + vy * p_spec[1]
    kv = np.sin(s) * coeff.imag + np.cos(s) * coeff.real
    return float(np.sum(kv[mask]) * eps * eps)
