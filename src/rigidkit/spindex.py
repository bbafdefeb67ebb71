"""Robbin-Salamon, Ind, Conley-Zehnder and Maslov indices of matrix paths.

Conventions, fixed once for the whole module: coordinates are ordered
(p_1..p_k, q_1..q_k); the symplectic form is omega(u, v) = u^T Omega v with
Omega = [[0, I], [-I, 0]]; path segments multiply on the left by
exp(t * J * S) with J = [[0, -I], [I, 0]] and S symmetric, so S = identity
generates a counterclockwise rotation and the full 2*pi twist of the plane
has Maslov index +2.  Graph computations happen in the doubled space
(R^{4k}, -omega (+) omega).

At a crossing t0 of a Lagrangian path {L_t} with a fixed Lagrangian V the
crossing form on L(t0) & V is Q(v) = d/dt omega(v, w(t)) where w(t) is the
W-component of the curve through v staying in L(t), for a fixed Lagrangian
complement W of L(t0).  Signatures of regular crossings are summed, with
half weight at the endpoints.  Non-regular configurations are retried
after pre-composing with a small uniform rotation.

Every index is one rs_index call on the orbit A_t span(Z) of a fixed
Lagrangian frame: Ind(A, V) is the orbit of V against V, the Conley-Zehnder
index the orbit of the diagonal under {I (+) A_t} (the graph path) against
the diagonal.  Tolerances are DEFAULT_TOLS.  The path classes (MatrixPath,
ProductPath, RotatedPath, DoubledPath and the doubled-space RotatedPath
_DoubledRotated) share one duck-typed protocol: k, values(ts), value(t),
derivative(t) and sampling_hint(), which sizes the first sample grid; no
function here dispatches on the path class.

Crossings are located on sample grids of a normalized determinant.
rs_index builds the fixed basis [V | complement of V] once, and every grid
level and every crossing form of the index uses it.  A grid is evaluated
in blocks of _GRID_BLOCK samples: the paths return their values at a
whole block as one stacked (N, n, n) array, and the frames of the block
are solved against that basis in one stacked solve and one stacked
determinant.  Sign
changes are refined by bisection and dips by golden-section search, in
stacked rounds: the points either search visits next depend only on which
side each step keeps, so each round evaluates the next _SPEC_DEPTH levels
of every search's branch tree in one stacked call, and the searches then
step through exactly the values they would have read one at a time.  The
stacked values equal the one-sample values bit for bit, so every crossing
is the same float either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.linalg import expm

DEFAULT_TOLS = {
    "structure": 1e-9,     # symplectic / Lagrangian / rank checks
    "bisection": 1e-9,     # crossing location
    "eig_zero": 1e-7,      # signature zero-threshold
    "snap": 1e-6,          # half-integer snapping
    "det_zero": 1e-10,     # normalized determinant zero threshold
}

# samples per stacked solve/det in the crossing search: bounds the memory
# of one evaluation independently of the grid size; the first two grid
# levels of most paths (257 + 530 samples) fit in one block
_GRID_BLOCK = 1024
# branch depth of the probe tree each bisection or golden-section search
# lists for one stacked refinement round
_SPEC_DEPTH = 4
_PHI = (math.sqrt(5) - 1) / 2


class IndexError_(ValueError):
    pass


class RegularityError(IndexError_):
    pass


def _block_antidiagonal(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """[[0, upper], [lower, 0]]; cheaper than np.block for these small,
    often rebuilt constants."""
    k = upper.shape[0]
    out = np.zeros((2 * k, 2 * k))
    out[:k, k:] = upper
    out[k:, :k] = lower
    return out


def omega_matrix(k: int) -> np.ndarray:
    i = np.eye(k)
    return _block_antidiagonal(i, -i)


def rotation_generator(k: int) -> np.ndarray:
    """Symmetric S with exp(t J S) the uniform counterclockwise rotation."""
    return np.eye(2 * k)


def j_matrix(k: int) -> np.ndarray:
    i = np.eye(k)
    return _block_antidiagonal(-i, i)


def doubled_omega(k: int) -> np.ndarray:
    """Form matrix of (-omega) (+) omega on R^{4k}."""
    o = omega_matrix(k)
    z = np.zeros_like(o)
    return np.block([[-o, z], [z, o]])


def is_symplectic(a: np.ndarray, omega=None) -> bool:
    tol = DEFAULT_TOLS["structure"]
    n = a.shape[0]
    if omega is None:
        omega = omega_matrix(n // 2)
    return bool(np.max(np.abs(a.T @ omega @ a - omega)) < tol * max(1.0, np.max(np.abs(a)) ** 2))


class LagrangianFrame:
    """2k x k frame whose columns span a Lagrangian subspace."""

    def __init__(self, columns, omega=None):
        tol = DEFAULT_TOLS["structure"]
        z = np.asarray(columns, dtype=float)
        if z.ndim != 2 or z.shape[0] != 2 * z.shape[1]:
            raise IndexError_("frame must be 2k x k")
        k = z.shape[1]
        om = omega_matrix(k) if omega is None else omega
        scale = max(1.0, float(np.max(np.abs(z))) ** 2)
        if np.max(np.abs(z.T @ om @ z)) > tol * scale:
            raise IndexError_("columns do not span an isotropic subspace")
        if np.linalg.svd(z, compute_uv=False)[-1] <= tol:
            raise IndexError_("frame is rank deficient")
        self.columns = z
        self.omega = om

    @property
    def k(self):
        return self.columns.shape[1]

    @classmethod
    def coordinate_plane(cls, k, which="q"):
        """The p- or q-coordinate Lagrangian plane."""
        z = np.zeros((2 * k, k))
        off = k if which == "q" else 0
        for i in range(k):
            z[off + i, i] = 1.0
        return cls(z)

    @classmethod
    def diagonal(cls, k):
        """The diagonal in the doubled space (R^{4k}, -omega (+) omega)."""
        z = np.vstack([np.eye(2 * k), np.eye(2 * k)])
        return cls(z, omega=doubled_omega(k))


# ---------------------------------------------------------------------------
# paths

class _SegmentExp:
    """Fast exp(t M) for fixed M via a cached eigendecomposition.

    Falls back to scipy's expm, one t at a time, when M is defective (e.g.
    nilpotent shear generators), detected by a reconstruction check.
    """

    def __init__(self, m):
        self.m = m
        self._ok = False
        try:
            w, v = np.linalg.eig(m)
            vinv = np.linalg.inv(v)
            recon = (v * np.exp(w)) @ vinv
            if np.max(np.abs(recon.real - expm(m))) < 1e-10 * max(1.0, float(np.max(np.abs(recon)))):
                self.w, self.v, self.vinv = w, v, vinv
                self._ok = True
        except np.linalg.LinAlgError:
            pass

    def at(self, t):
        return self.at_many(np.array([t]))[0]

    def at_many(self, ts):
        """exp(t M) for every t in ts, stacked as an (N, n, n) array."""
        ts = np.asarray(ts, dtype=float)
        if self._ok:
            scale = np.exp(np.multiply.outer(ts, self.w))[:, None, :]
            return ((self.v * scale) @ self.vinv).real
        return np.stack([expm(self.m * t) for t in ts])


class MatrixPath:
    """Identity-based piecewise-exponential path in Sp(2k).

    segments: list of (symmetric generator S_i, duration tau_i > 0); on the
    i-th segment the path is exp(t J S_i) times the value reached so far.
    Durations are normalized so the whole path is parametrized by [0, 1].
    """

    def __init__(self, k, segments):
        tol = DEFAULT_TOLS["structure"]
        self.k = int(k)
        segs = []
        for s, dur in segments:
            s = np.asarray(s, dtype=float)
            if s.shape != (2 * self.k, 2 * self.k):
                raise IndexError_("generator has wrong shape")
            if np.max(np.abs(s - s.T)) > tol * max(1.0, np.max(np.abs(s))):
                raise IndexError_("generator must be symmetric")
            dur = float(dur)
            if dur <= 0:
                raise IndexError_("durations must be positive")
            segs.append((0.5 * (s + s.T), dur))
        if not segs:
            segs = [(np.zeros((2 * self.k, 2 * self.k)), 1.0)]
        self.segments = segs
        self.total = sum(d for _, d in segs)
        self._j = j_matrix(self.k)
        self._exps = [_SegmentExp(self._j @ s) for s, _ in segs]
        # value at the left end of each segment; clock times at which each
        # segment starts (offsets) and ends
        self._starts = [np.eye(2 * self.k)]
        for (s, d), ex in zip(segs, self._exps):
            self._starts.append(ex.at(d) @ self._starts[-1])
        ends = list(accumulate(d for _, d in segs))
        self._ends, self._offsets = np.array(ends), np.array([0.0] + ends[:-1])

    def _clock(self, ts):
        """Clock times of ts (clamped to [0, 1]) and the segment of each; a
        time on a segment boundary belongs to the earlier segment."""
        t = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0) * self.total
        return t, np.minimum(np.searchsorted(self._ends, t), len(self.segments) - 1)

    def values(self, ts) -> np.ndarray:
        """Path values at every t in ts, stacked as an (N, 2k, 2k) array."""
        t, seg = self._clock(ts)
        out = np.empty((len(t), 2 * self.k, 2 * self.k))
        for i, ex in enumerate(self._exps):
            sel = seg == i
            if sel.any():
                out[sel] = ex.at_many(t[sel] - self._offsets[i]) @ self._starts[i]
        return out

    def value(self, t) -> np.ndarray:
        return self.values(np.array([t]))[0]

    def derivative(self, t) -> np.ndarray:
        """d/dt of the path at parameter t (scaled to the [0,1] clock)."""
        s, _ = self.segments[self._clock(np.array([t]))[1][0]]
        return (self._j @ s * self.total) @ self.value(t)

    def end(self) -> np.ndarray:
        return self._starts[-1]

    def sampling_hint(self) -> float:
        """Total rotation-like content of the path, used to size the sample grid."""
        return sum(np.linalg.norm(s, 2) * d for s, d in self.segments) / max(self.total, 1e-12)

    def conjugate(self, b: np.ndarray) -> "MatrixPath":
        """The path {B A_t B^{-1}} for symplectic B, again piecewise exponential."""
        b = np.asarray(b, dtype=float)
        if not is_symplectic(b):
            raise IndexError_("conjugating matrix must be symplectic")
        j = self._j
        segs = [(j @ b @ j @ s @ j @ b.T @ j, d) for s, d in self.segments]
        return MatrixPath(self.k, segs)


class ProductPath:
    """Pointwise product {A_t B_t}; derivative by the product rule."""

    def __init__(self, a, b):
        if a.k != b.k:
            raise IndexError_("paths in different dimensions")
        self.k = a.k
        self.a, self.b = a, b

    def values(self, ts):
        return self.a.values(ts) @ self.b.values(ts)

    def value(self, t):
        return self.values(np.array([t]))[0]

    def derivative(self, t):
        return (self.a.derivative(t) @ self.b.value(t)
                + self.a.value(t) @ self.b.derivative(t))

    def end(self):
        return self.a.end() @ self.b.end()

    def sampling_hint(self):
        return self.a.sampling_hint() + self.b.sampling_hint()


class RotatedPath:
    """{R_{delta t} A_t}: uniform-rotation regularization of a path, with
    R_s = exp(s J) for a complex structure J (by default j_matrix(k))."""

    def __init__(self, base, delta, j=None):
        self.base = base
        self.k = base.k
        self.delta = float(delta)
        self._j = j_matrix(self.k) if j is None else j
        self._exp = _SegmentExp(self._j * self.delta)

    def values(self, ts):
        return self._exp.at_many(ts) @ self.base.values(ts)

    def value(self, t):
        return self.values(np.array([t]))[0]

    def derivative(self, t):
        r = self._exp.at(t)
        return (self._j * self.delta) @ r @ self.base.value(t) + r @ self.base.derivative(t)

    def sampling_hint(self):
        return self.base.sampling_hint() + abs(self.delta)


class DoubledPath:
    """{I (+) A_t} acting on the doubled space; its orbit of the diagonal
    is the graph path {Gr A_t}."""

    def __init__(self, base):
        self.base = base
        self.k = 2 * base.k

    def values(self, ts):
        a = self.base.values(ts)
        n = a.shape[1]
        out = np.zeros((len(a), 2 * n, 2 * n))
        out[:, :n, :n] = np.eye(n)
        out[:, n:, n:] = a
        return out

    def value(self, t):
        return self.values(np.array([t]))[0]

    def derivative(self, t):
        da = self.base.derivative(t)
        n = da.shape[0]
        out = np.zeros((2 * n, 2 * n))
        out[n:, n:] = da
        return out

    def sampling_hint(self):
        return self.base.sampling_hint()


class _DoubledRotated(RotatedPath):
    """Rotation regularization inside the doubled space, by its own J."""

    def __init__(self, base, delta):
        super().__init__(base, delta, -doubled_omega(base.k // 2))

    # the same methods, bound in this class body too: perfbench's tracer
    # wraps value and derivative in each path class's own body
    value, derivative = RotatedPath.value, RotatedPath.derivative


class FrameIsotopy:
    """Lagrangian path L(t) = A_t span(Z): a matrix path acting on a fixed
    Lagrangian frame Z, with exact derivative; k and the symplectic form
    are those of the frame."""

    def __init__(self, path, frame: LagrangianFrame):
        self.path = path
        self.columns = frame.columns
        self.k = frame.k
        self.omega = frame.omega

    def frame(self, t) -> np.ndarray:
        return self.path.value(t) @ self.columns

    def dframe(self, t) -> np.ndarray:
        return self.path.derivative(t) @ self.columns

    def frames(self, ts) -> np.ndarray:
        """Frames at every t in ts, stacked as an (N, n, k) array."""
        return self.path.values(np.asarray(ts, dtype=float)) @ self.columns


# ---------------------------------------------------------------------------
# crossings

@dataclass
class CrossingRecord:
    t: float
    kernel_dimension: int
    signature: int
    at_endpoint: bool


def _indicator_basis(v: np.ndarray) -> np.ndarray:
    """m = [v | w] for a basis w of a complement of span(v)."""
    k = v.shape[1]
    q, _ = np.linalg.qr(v, mode="complete")
    return np.hstack([v, q[:, k:]])


def _det_indicators(m: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Normalized determinants whose zeros detect span(z) & span(v) != 0,
    for a stack zs of (n, k) frames and m = _indicator_basis(v).

    Solve m c = z; the lower k x k block of c is singular exactly at
    crossings.  Normalized by the column norms of c, so the value is scale
    free and small exactly when some combination of the z-columns falls
    into V.
    """
    k = zs.shape[2]
    c = np.linalg.solve(m, zs)
    d = np.linalg.det(c[:, k:, :])
    denom = np.prod(np.maximum(np.linalg.norm(c, axis=1), 1e-300), axis=1)
    return np.divide(d, denom, out=np.zeros_like(d), where=denom > 0)


def _kernel_coefficients(beta: np.ndarray) -> np.ndarray:
    """Columns spanning the numerical kernel of the square matrix beta."""
    tol = DEFAULT_TOLS["eig_zero"]
    _, s, vt = np.linalg.svd(beta)
    scale = s[0] if s[0] > 0 else 1.0
    null = vt[s <= tol * max(1.0, scale)]
    if len(null) == 0 and s[-1] <= math.sqrt(tol):
        null = vt[-1:]
    return null.T


def crossing_form(iso: FrameIsotopy, m: np.ndarray, t0: float):
    """(kernel_dim, signature) of the crossing form at t0 against V, for
    m = _indicator_basis(V), via the standard derivative formula with
    W = J * L(t0) as the complement of L(t0)."""
    tols = DEFAULT_TOLS
    z = iso.frame(t0)
    dz = iso.dframe(t0)
    k = z.shape[1]
    # z @ c spans L(t0) & V
    c = _kernel_coefficients(np.linalg.solve(m, z)[k:, :])
    kerdim = c.shape[1]
    if not kerdim:
        raise RegularityError("no kernel found at a reported crossing")
    om = iso.omega
    # complement W = J L(t0) where J = -Omega works for any form matrix Omega
    w = -om @ z
    sol = np.linalg.solve(np.hstack([z, -w]), -dz @ c)
    q = (z @ c).T @ om @ (w @ sol[k:])
    asym = np.max(np.abs(q - q.T)) if kerdim > 1 else 0.0
    if asym > max(10 * tols["eig_zero"], 1e-6 * max(1.0, np.max(np.abs(q)))):
        raise RegularityError(f"crossing form not symmetric (defect {asym:.2e})")
    q = 0.5 * (q + q.T)
    eigs = np.linalg.eigvalsh(q)
    zero_tol = tols["eig_zero"] * max(1.0, float(np.max(np.abs(eigs))))
    if any(abs(e) <= zero_tol for e in eigs):
        raise RegularityError("degenerate crossing form")
    sig = int(sum(1 for e in eigs if e > 0) - sum(1 for e in eigs if e < 0))
    return kerdim, sig


class _Bisection:
    """Bisection of a sign change of the indicator on [a, b], kept as a state
    so that it can run ahead on values evaluated in advance.  The midpoints
    depend only on which half each step keeps, so probes() lists them for
    the next _SPEC_DEPTH steps without knowing any value."""

    def __init__(self, a, b, fa, zero):
        self.a, self.b, self.fa, self.zero = a, b, fa, zero
        self.steps = 0
        self.t = None

    def probes(self):
        out = []

        def walk(a, b, depth):
            if (b - a) < DEFAULT_TOLS["bisection"]:
                return
            m = 0.5 * (a + b)
            out.append(m)
            if depth > 1:
                walk(a, m, depth - 1)
                walk(m, b, depth - 1)

        walk(self.a, self.b, _SPEC_DEPTH)
        return out

    def advance(self, f) -> bool:
        """Run steps while the dict f holds the next midpoint; True once the
        search has its crossing t."""
        while self.steps < 200:
            m = 0.5 * (self.a + self.b)
            if (self.b - self.a) < DEFAULT_TOLS["bisection"]:
                self.t = m
                return True
            if m not in f:
                return False
            fm = f[m]
            if abs(fm) <= self.zero:
                self.t = m
                return True
            if (self.fa < 0) != (fm < 0):
                self.b = m
            else:
                self.a, self.fa = m, fm
            self.steps += 1
        self.t = 0.5 * (self.a + self.b)
        return True


class _GoldenSection:
    """Golden-section minimization of |indicator| on [a, b], kept as a state
    like _Bisection: each step adds one point, fixed by which side it keeps.
    The result t comes with its value ft, the acceptance test of a dip."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.x1, self.x2 = b - _PHI * (b - a), a + _PHI * (b - a)
        self.f1 = self.f2 = None
        self.t = self.ft = None

    def probes(self):
        out = [x for x, fx in ((self.x1, self.f1), (self.x2, self.f2)) if fx is None]

        def walk(a, b, x1, x2, depth):
            if not (b - a) > DEFAULT_TOLS["bisection"]:
                out.append(0.5 * (a + b))
                return
            if depth == 0:
                return
            x1_left = x2 - _PHI * (x2 - a)
            out.append(x1_left)
            walk(a, x2, x1_left, x1, depth - 1)
            x2_right = x1 + _PHI * (b - x1)
            out.append(x2_right)
            walk(x1, b, x2, x2_right, depth - 1)

        walk(self.a, self.b, self.x1, self.x2, _SPEC_DEPTH)
        return out

    def advance(self, f) -> bool:
        """Run steps while the dict f holds the next point; True once t and
        ft are known."""
        while True:
            if self.f1 is None:
                if self.x1 not in f:
                    return False
                self.f1 = abs(f[self.x1])
            if self.f2 is None:
                if self.x2 not in f:
                    return False
                self.f2 = abs(f[self.x2])
            if not (self.b - self.a) > DEFAULT_TOLS["bisection"]:
                t = 0.5 * (self.a + self.b)
                if t not in f:
                    return False
                self.t, self.ft = t, f[t]
                return True
            if self.f1 <= self.f2:
                self.b, self.x2, self.f2 = self.x2, self.x1, self.f1
                self.x1, self.f1 = self.b - _PHI * (self.b - self.a), None
            else:
                self.a, self.x1, self.f1 = self.x1, self.x2, self.f2
                self.x2, self.f2 = self.a + _PHI * (self.b - self.a), None


class _GridScan:
    """What one sample grid of the indicator shows: zeros on the samples,
    and the searches that refine its sign changes and its dips.  Thresholds
    are relative to the largest indicator value along the path, so
    uniformly small indicators (tiny regularizations) are handled correctly."""

    def __init__(self, ts, fs):
        absf = np.abs(fs)
        fmax = float(np.max(absf))
        if fmax == 0.0:
            raise RegularityError("path appears to lie inside the crossing variety")
        zero = DEFAULT_TOLS["det_zero"] * fmax
        near = absf <= zero
        if np.count_nonzero(near) > len(ts) // 2:
            raise RegularityError("path appears to lie inside the crossing variety")
        self.found = set()
        if near[0]:
            self.found.add(0.0)
        if near[-1]:
            self.found.add(1.0)
        neg, far = fs < 0, ~near
        self.bisections = [_Bisection(ts[i], ts[i + 1], fs[i], zero) for i in
                           np.flatnonzero((neg[:-1] != neg[1:]) & far[:-1] & far[1:])]
        # tangential crossings: refine every local minimum of |f| that dips
        # well below the path scale, accept if the refined value is zero-like
        gate = 0.05 * fmax
        inner = absf[1:-1]
        self.dips = []
        for i in np.flatnonzero((inner <= absf[:-2]) & (inner <= absf[2:]) & (inner < gate)) + 1:
            if near[i]:
                self.found.add(float(ts[i]))
            else:
                self.dips.append(_GoldenSection(ts[i - 1], ts[i + 1]))
        self.accept = max(zero, 1e-14 * fmax)

    def crossings(self):
        found = self.found | {s.t for s in self.bisections}
        found |= {s.t for s in self.dips if abs(s.ft) <= self.accept}
        # merge refinements of the same zero (bisection and min-search can land
        # within ~1e-7 of each other on a single simple crossing)
        merge_tol = max(1e-6, 10 * DEFAULT_TOLS["bisection"])
        out = []
        for t in sorted(found):
            if out and abs(t - out[-1]) < merge_tol:
                continue
            out.append(t)
        return out


def _indicators(iso: FrameIsotopy, m: np.ndarray, ts) -> np.ndarray:
    """Indicator values at every t in ts, in stacked blocks of _GRID_BLOCK."""
    ts = np.asarray(ts, dtype=float)
    return np.concatenate([_det_indicators(m, iso.frames(ts[i:i + _GRID_BLOCK]))
                           for i in range(0, len(ts), _GRID_BLOCK)])


def _crossing_levels(iso: FrameIsotopy, m: np.ndarray, grids):
    """Crossing parameters in [0, 1] on each of several sample grids of one
    path, for m = _indicator_basis(V): sign changes of the indicator refined
    by bisection, tangential touches by golden-section minimization of |f|.

    The grids are evaluated as one stack and checked for regularity in
    order; then every search of every grid advances in the same stacked
    rounds.  A round evaluates the probe trees of all unfinished searches in
    one call, and each search takes the steps whose values it now has.  Each
    search reads exactly the values and takes exactly the steps it would
    take alone."""
    fs = _indicators(iso, m, np.concatenate(grids))
    bounds = np.cumsum([len(ts) for ts in grids])[:-1]
    scans = [_GridScan(ts, f) for ts, f in zip(grids, np.split(fs, bounds))]
    searches = [s for scan in scans for s in scan.bisections + scan.dips]
    values = {}
    while searches:
        ts = sorted({t for s in searches for t in s.probes()} - values.keys())
        values.update(zip(ts, _indicators(iso, m, ts)))
        searches = [s for s in searches if not s.advance(values)]
    return [scan.crossings() for scan in scans]


def _samples_for(hint: float) -> int:
    return max(256, int(math.ceil(48 * hint)))


def rs_index(iso: FrameIsotopy, v: LagrangianFrame, _raw=False):
    """Robbin-Salamon index of a Lagrangian path against a fixed Lagrangian.

    Crossings are searched on grids of growing size until two consecutive
    grids agree; the first two grids are evaluated in one stacked call and
    refined in shared stacked rounds.  Sum of the crossing-form signatures,
    halved at the endpoints; the result is snapped to the nearest half
    integer.  Raises RegularityError if a crossing stays degenerate
    (callers retry with a regularization).
    """
    tols = DEFAULT_TOLS
    m = _indicator_basis(v.columns)
    n = _samples_for(iso.path.sampling_hint())
    # escalate the sample resolution until two consecutive levels agree on
    # the crossing set; close pairs of crossings are invisible to any fixed
    # grid, so agreement across resolutions is the acceptance test.  Levels
    # 0 and 1 always both run, so they are evaluated and refined together
    first = _crossing_levels(iso, m, [np.linspace(0.0, 1.0, n + 1),
                                      np.linspace(0.0, 1.0, 2 * n + 18)])
    crossings = None
    for level in range(5):
        found = (first[level] if level < 2
                 else _crossing_levels(iso, m, [np.linspace(0.0, 1.0, n + 1)])[0])
        if crossings is not None and len(found) == len(crossings) and all(
                abs(a - b) < 1e-6 for a, b in zip(found, crossings)):
            break
        crossings = found
        n = 2 * n + 17
    total = 0.0
    records = []
    eps = tols["bisection"]
    for t in crossings:
        # crossings within eps of an endpoint are evaluated there, at half weight
        end = 0.0 if t <= eps else 1.0 if t >= 1.0 - eps else None
        kd, sig = crossing_form(iso, m, t if end is None else end)
        total += (1.0 if end is None else 0.5) * sig
        records.append(CrossingRecord(float(t), kd, sig, end is not None))
    snapped = round(total * 2) / 2
    if abs(total - snapped) > tols["snap"]:
        raise IndexError_(f"index not resolved: residual {abs(total - snapped):.2e}")
    if _raw:
        return snapped, records
    return snapped


def _regularized_index(maker, v: LagrangianFrame):
    """rs_index of the orbit of v under maker(0.0), against v; retried with
    the shrinking uniform pre-rotations maker(delta) if that is degenerate.

    The delta-rotated value is accepted once two consecutive deltas agree,
    which pins the documented regularized convention (delta -> 0+).
    """
    def compute(delta):
        return rs_index(FrameIsotopy(maker(delta), v), v)

    try:
        return compute(0.0)
    except RegularityError:
        pass
    delta = 1e-3
    prev = None
    for _ in range(8):
        try:
            val = compute(delta)
        except RegularityError:
            delta *= 0.5
            continue
        if prev is not None and val == prev:
            return val
        prev = val
        delta *= 0.5
    if prev is not None:
        return prev
    raise RegularityError("regularization retries exhausted")


def ind(path, v: LagrangianFrame):
    """Ind(path, V) = RS({A_t V}, V) with delta-rotation regularization."""
    return _regularized_index(lambda d: RotatedPath(path, d) if d else path, v)


def cz_matr(path):
    """Conley-Zehnder index: RS of the graph path against the diagonal."""
    return _regularized_index(lambda d: DoubledPath(RotatedPath(path, d) if d else path),
                              LagrangianFrame.diagonal(path.k))


def ind_doubled(path):
    """Ind_{4k}({I (+) A_t}, Delta), the right side of the doubling identity."""
    return _regularized_index(lambda d: _DoubledRotated(DoubledPath(path), d) if d
                              else DoubledPath(path), LagrangianFrame.diagonal(path.k))


def maslov_loop(path):
    """Maslov index of an identity-based loop (even integer).

    Degenerate loops (e.g. the constant one) cannot be resolved by the
    uniform rotation trick without breaking closure, so they are computed
    by multiplying with full-twist loops of known index and subtracting:
    the Maslov index is additive on pointwise products of loops.
    """
    tols = DEFAULT_TOLS
    if not np.max(np.abs(path.end() - np.eye(2 * path.k))) < 1e-6:
        raise IndexError_("path does not close up at the identity")
    for m in range(4):
        loop = path if m == 0 else ProductPath(
            MatrixPath(path.k, [(rotation_generator(path.k) * 2 * math.pi * m, 1.0)]), path)
        val = cz_matr(loop) - 2 * m * path.k
        if abs(val - round(val)) <= tols["snap"] and int(round(val)) % 2 == 0:
            return int(round(val))
    raise IndexError_(f"Maslov index not an even integer: {val}")


def cz_floer(path, n):
    """n - cz_matr(path): the grading normalization used downstream."""
    if path.k != n:
        raise IndexError_("path dimension 2k must equal 2n")
    return n - cz_matr(path)


# ---------------------------------------------------------------------------
# Leray composition formula

def _transversal_f_block(a: np.ndarray):
    """(n, F) for S = [[E, F], [G, H]]; raises unless F is invertible."""
    n = a.shape[0] // 2
    f = a[:n, n:]
    if abs(np.linalg.det(f)) < 1e-12 * max(1.0, np.linalg.norm(f) ** n):
        raise IndexError_("transversality fails: F block singular")
    return n, f


def _symmetric_part(q: np.ndarray, name: str) -> np.ndarray:
    sym_defect = np.max(np.abs(q - q.T))
    if sym_defect > 1e-7 * max(1.0, np.max(np.abs(q))):
        raise IndexError_(f"{name} not symmetric (defect {sym_defect:.2e})")
    return 0.5 * (q + q.T)


def leray_q(a: np.ndarray):
    """Q_S = F^{-1} E from the block decomposition S = [[E, F], [G, H]].

    Requires S L & L = 0 for the q-coordinate plane L, i.e. F invertible.
    This is the first-corner Hessian of the generating function of S.
    """
    n, f = _transversal_f_block(a)
    return _symmetric_part(np.linalg.solve(f, a[:n, :n]), "Q_S")


def leray_q_second(a: np.ndarray):
    """Q*_S = H F^{-1}: the second-corner Hessian of the generating function.

    Symmetric for symplectic S by the relation F^T H = H^T F; in the
    composition formula it is the form attached to the second factor.
    """
    n, f = _transversal_f_block(a)
    return _symmetric_part(a[n:, n:] @ np.linalg.inv(f), "Q*_S")


def _transversal_to_l(a: np.ndarray) -> bool:
    n = a.shape[0] // 2
    s = np.linalg.svd(a[:n, n:], compute_uv=False)
    return s[-1] > 1e-7 * max(1.0, s[0])


def leray_verify(a_path, b_path):
    """Both sides of the composition formula for Ind against the q-plane.

    lhs = Ind({A_t B_t}, L); rhs = Ind(A) + Ind(B) + sign(Q_A1 + Q*_B1)/2
    where Q = F^{-1}E is the first generating-function corner (of the first
    factor's endpoint) and Q* = HF^{-1} the second corner (of the second
    factor's endpoint).  Validated against the index computations on random
    pairs and rotation families; with rotation-type endpoints Q and Q*
    coincide.  Raises when an endpoint transversality condition
    A1 L & L = 0, B1 L & L = 0, A1 B1 L & L = 0 fails.
    """
    if a_path.k != b_path.k:
        raise IndexError_("paths in different dimensions")
    k = a_path.k
    a1, b1 = a_path.end(), b_path.end()
    checks = {"A1 L cap L = 0": a1, "B1 L cap L = 0": b1, "A1B1 L cap L = 0": a1 @ b1}
    for name, m in checks.items():
        if not _transversal_to_l(m):
            raise IndexError_(f"transversality fails: {name}")
    l_frame = LagrangianFrame.coordinate_plane(k, "q")
    lhs = ind(ProductPath(a_path, b_path), l_frame)
    ia = ind(a_path, l_frame)
    ib = ind(b_path, l_frame)
    qs = leray_q(a1) + leray_q_second(b1)
    eigs = np.linalg.eigvalsh(qs)
    zero_tol = DEFAULT_TOLS["eig_zero"] * max(1.0, float(np.max(np.abs(eigs))))
    if any(abs(e) <= zero_tol for e in eigs):
        raise IndexError_("endpoint form Q_A1 + Q*_B1 is degenerate")
    sig = int(sum(1 for e in eigs if e > 0) - sum(1 for e in eigs if e < 0))
    rhs = ia + ib + 0.5 * sig
    return {
        "lhs": lhs,
        "ind_a": ia,
        "ind_b": ib,
        "signature_term": 0.5 * sig,
        "rhs": rhs,
        "residual": abs(lhs - rhs),
    }


def qm_defect(a_path, b_path):
    """|cz(ab) - cz(a) - cz(b)| for the pointwise product path."""
    cab = cz_matr(ProductPath(a_path, b_path))
    ca = cz_matr(a_path)
    cb = cz_matr(b_path)
    return abs(cab - ca - cb)
