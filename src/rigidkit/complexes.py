"""Filtered Z2-graded complexes over the Novikov field and their spectral invariants.

A decorated complex carries a preferred basis, a rational filter value per
basis vector, a parity per basis vector, a period group, and a differential
that squares to zero, flips parity, and strictly decreases the filter.
Spectral invariants of homology classes are computed through normal and
spectral bases, entirely in exact arithmetic.

Normal bases are built triangular: each vector is 1 at its own dominant index
and 0 at the dominant indices of the vectors before it.  Reducing a vector
against such a basis is therefore forward substitution, one pass over the
basis in order, with no linear system to solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .novikov import (
    NEG_INF,
    FieldMismatchError,
    NovikovScalar,
    PeriodGroup,
    group_sum,
)


class ComplexError(ValueError):
    pass


class NotGenericError(ComplexError):
    pass


class ChainElement:
    """Vector in the complex: basis index -> NovikovScalar coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {int(i): c for i, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def basis_vector(cls, field, i):
        return cls({i: NovikovScalar.one(field)})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        c = dict(self.coeffs)
        for i, x in other.coeffs.items():
            c[i] = c[i] + x if i in c else x
        return ChainElement(c)

    def __sub__(self, other):
        c = dict(self.coeffs)
        for i, x in other.coeffs.items():
            c[i] = c[i] - x if i in c else -x
        return ChainElement(c)

    def __neg__(self):
        return ChainElement({i: -x for i, x in self.coeffs.items()})

    def scale(self, scalar: NovikovScalar):
        if scalar.is_zero():
            return ChainElement({})
        return ChainElement({i: x * scalar for i, x in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, ChainElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted((i, hash(c)) for i, c in self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "ChainElement(0)"
        return "ChainElement(" + " + ".join(
            f"({c.to_text()})*x{i}" for i, c in sorted(self.coeffs.items())) + ")"


class DecoratedComplex:
    """(V, {x_i}, F, d, Gamma): see module docstring for the conditions."""

    def __init__(self, field, gamma: PeriodGroup, labels, parities, filters,
                 differential, check=True):
        self.field = field
        self.gamma = gamma
        self.labels = tuple(labels)
        self.parities = tuple(int(p) for p in parities)
        self.filters = tuple(Fraction(f) for f in filters)
        n = len(self.labels)
        if len(self.parities) != n or len(self.filters) != n:
            raise ComplexError("basis data lengths disagree")
        if len(set(self.labels)) != n:
            raise ComplexError("duplicate basis labels")
        for p in self.parities:
            if p not in (0, 1):
                raise ComplexError("parity must be 0 or 1")
        # differential: list of columns, column j = dict {i: scalar} meaning d x_j
        cols = []
        for j in range(n):
            col = {}
            for i, sc in differential[j].items():
                if not isinstance(sc, NovikovScalar):
                    raise TypeError("differential entries must be NovikovScalar")
                if sc.field != field:
                    raise FieldMismatchError("differential field mismatch")
                if not sc.is_zero():
                    col[int(i)] = sc
            cols.append(col)
        self.diff = tuple(cols)
        if check:
            bad = validate(self)
            if bad:
                raise ComplexError("; ".join(bad))

    @property
    def dim(self):
        return len(self.labels)

    def index_of(self, label):
        return self.labels.index(label)

    def basis_vector(self, i):
        return ChainElement.basis_vector(self.field, i)

    def d(self, v: ChainElement) -> ChainElement:
        out = {}
        for j, c in v.coeffs.items():
            for i, sc in self.diff[j].items():
                p = sc * c
                out[i] = out[i] + p if i in out else p
        return ChainElement(out)

    def diff_matrix(self):
        z = NovikovScalar.zero(self.field)
        n = self.dim
        m = [[z] * n for _ in range(n)]
        for j, col in enumerate(self.diff):
            for i, sc in col.items():
                m[i][j] = sc
        return m

    def with_filters(self, new_filters, check=True):
        return DecoratedComplex(self.field, self.gamma, self.labels, self.parities,
                                new_filters, [dict(c) for c in self.diff], check=check)

    def __eq__(self, other):
        if not isinstance(other, DecoratedComplex):
            return NotImplemented
        return (self.field == other.field and self.gamma == other.gamma
                and self.labels == other.labels and self.parities == other.parities
                and self.filters == other.filters and self.diff == other.diff)

    def __repr__(self):
        return (f"DecoratedComplex(n={self.dim}, field={self.field}, "
                f"gamma={self.gamma.generator})")


# ---------------------------------------------------------------------------
# basic operations

def validate(v: DecoratedComplex):
    """Check d^2 = 0, parity flip, and strict filter decrease on basis vectors.

    Returns a list of diagnostics naming the offending basis vectors.
    """
    bad = []
    n = v.dim
    for j in range(n):
        for i in v.diff[j]:
            if v.parities[i] == v.parities[j]:
                bad.append(f"d does not flip parity on {v.labels[j]} -> {v.labels[i]}")
    for j in range(n):
        dd = v.d(ChainElement(v.diff[j]))
        if not dd.is_zero():
            bad.append(f"d^2 != 0 on {v.labels[j]}")
    for j in range(n):
        fv = filter_value(v, ChainElement(v.diff[j]))
        if fv != NEG_INF and fv >= v.filters[j]:
            bad.append(
                f"filter does not strictly decrease on {v.labels[j]}: "
                f"F(dx) = {fv} >= {v.filters[j]}")
    return bad


def filter_value(v: DecoratedComplex, x: ChainElement):
    """F(sum lambda_j x_j) = max(nu(lambda_j) + F(x_j)); F(0) = -inf."""
    if x.is_zero():
        return NEG_INF
    return max(c.valuation() + v.filters[i] for i, c in x.coeffs.items())


def is_generic(v: DecoratedComplex) -> bool:
    """No two filter values differ by a period: F(x_i) - F(x_j) not in Gamma."""
    return len({v.gamma.residue(f) for f in v.filters}) == v.dim


def dominant(v: DecoratedComplex, x: ChainElement):
    """Unique (index p, scale lambda) with x = lambda (x_p + lower order)."""
    if x.is_zero():
        raise ComplexError("zero vector has no dominant term")
    best_i, best_val = None, None
    tie = False
    for i, c in x.coeffs.items():
        val = c.valuation() + v.filters[i]
        if best_val is None or val > best_val:
            best_i, best_val, tie = i, val, False
        elif val == best_val:
            tie = True
    if tie:
        raise NotGenericError("dominant term tie: complex not generic")
    return best_i, x.coeffs[best_i]


def is_normalized(v: DecoratedComplex, x: ChainElement) -> bool:
    """x = x_p + o(x_p): dominant coefficient 1 and strictly dominant."""
    if x.is_zero():
        return False
    try:
        p, lam = dominant(v, x)
    except NotGenericError:
        return False
    return lam.is_one()


def normal_basis(v: DecoratedComplex, vectors):
    """Normal basis of the span of the given vectors.

    Follows the inductive construction: reduce each new vector modulo the
    span of the ones already normalized (eliminating their dominant
    coordinates), then normalize what remains.  Dependent inputs reduce to
    zero and are dropped.  Requires a generic complex.

    The output is triangular: each vector is 1 at its own dominant index and
    0 at the dominant indices of the vectors before it, because it was
    reduced against all of them before it was normalized and appended.
    """
    out, doms = [], []
    _extend_normal(v, out, doms, vectors)
    return out


def _extend_normal(v, basis, doms, vectors):
    """Append the normalized reductions of vectors to the triangular basis,
    with their dominant indices to doms, dropping those in its span."""
    for vec in vectors:
        w = _reduce(basis, doms, vec)[1]
        if w.is_zero():
            continue
        p, lam = dominant(v, w)
        if p in doms:
            raise ComplexError("dominant index collision: complex not generic?")
        basis.append(w.scale(lam.inverse()))
        doms.append(p)


def _reduce(basis, doms, vec):
    """Split vec = sum_l a_l basis[l] + w with w zero at every doms[l].

    Forward substitution on the triangular basis: clearing doms[l] with
    basis[l], in order, leaves the coordinates doms[m] with m < l at zero.
    Returns ({l: a_l} over the nonzero a_l, w).
    """
    coeffs = {}
    w = vec
    for l, (e, p) in enumerate(zip(basis, doms)):
        a = w.coeffs.get(p)
        if a is not None:
            coeffs[l] = a
            w = w - e.scale(a)
    return coeffs, w


@dataclass
class SpectralBasis:
    """Partition of a basis adapted to Im d inside Ker d.

    x_part: indices of preferred basis vectors completing the basis;
    g_part: normalized cycles spanning Im d; h_part: normalized cycles
    completing a basis of Ker d.  Counts satisfy n = p + 2q.
    """
    x_part: tuple
    g_part: tuple
    h_part: tuple

    @property
    def q(self):
        return len(self.g_part)

    @property
    def p(self):
        return len(self.h_part)


def spectral_basis(v: DecoratedComplex, order=None) -> SpectralBasis:
    """Spectral basis of a generic complex.

    order optionally permutes the preferred basis indices used to span
    Im d and the kernel; the resulting invariants do not depend on it.
    """
    if not is_generic(v):
        raise NotGenericError("spectral basis requires a generic complex")
    n = v.dim
    idx = list(order) if order is not None else list(range(n))
    if sorted(idx) != list(range(n)):
        raise ComplexError("order must be a permutation of the basis indices")
    basis, doms = [], []
    _extend_normal(v, basis, doms, (ChainElement(v.diff[j]) for j in idx))
    q = len(basis)
    kernel = linalg.nullspace(v.diff_matrix())
    kernel_elems = [ChainElement({i: c for i, c in enumerate(vec)}) for vec in kernel]
    pos = {i: k for k, i in enumerate(idx)}
    kernel_elems.sort(key=lambda e: [pos[i] for i in sorted(e.coeffs)])
    _extend_normal(v, basis, doms, kernel_elems)
    g, h = basis[:q], basis[q:]
    p = len(h)
    if n != p + 2 * q:
        raise ComplexError(f"rank bookkeeping failed: n={n}, p={p}, q={q}")
    x_part = tuple(i for i in range(n) if i not in doms)
    if len(x_part) != q:
        raise ComplexError("spectral basis x-part has wrong size")
    return SpectralBasis(x_part, tuple(g), tuple(h))


@dataclass
class HomologyClass:
    """Coefficients over the classes [h_1], ..., [h_p] of a spectral basis."""
    coeffs: tuple  # NovikovScalar per h

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)


def class_of_cycle(v: DecoratedComplex, sb: SpectralBasis, cycle: ChainElement) -> HomologyClass:
    """Express the homology class of a cycle over the h-part of the basis.

    g_part + h_part is triangular as spectral_basis builds it, so the
    coefficients come from forward substitution.
    """
    if not v.d(cycle).is_zero():
        raise ComplexError("not a cycle")
    basis = sb.g_part + sb.h_part
    coeffs, w = _reduce(basis, [dominant(v, e)[0] for e in basis], cycle)
    if not w.is_zero():
        raise ComplexError("cycle not in the span of the spectral basis")
    zero = NovikovScalar.zero(v.field)
    return HomologyClass(tuple(coeffs.get(l, zero) for l in range(sb.q, len(basis))))


def canonical_representative(v: DecoratedComplex, sb: SpectralBasis, a: HomologyClass) -> ChainElement:
    out = ChainElement({})
    for lam, h in zip(a.coeffs, sb.h_part):
        if not lam.is_zero():
            out = out + h.scale(lam)
    return out


def spectral_invariant(v: DecoratedComplex, sb: SpectralBasis, a: HomologyClass):
    """c(a) = max_i F(lambda_i h_i); -inf for the zero class."""
    best = NEG_INF
    for lam, h in zip(a.coeffs, sb.h_part):
        if lam.is_zero():
            continue
        val = lam.valuation() + filter_value(v, h)
        if val > best:
            best = val
    return best


def spectral_invariant_of_cycle(v: DecoratedComplex, cycle: ChainElement, order=None):
    sb = spectral_basis(v, order)
    return spectral_invariant(v, sb, class_of_cycle(v, sb, cycle))


def homology_rank(v: DecoratedComplex) -> int:
    return v.dim - 2 * linalg.rank(v.diff_matrix())


# ---------------------------------------------------------------------------
# tensor product

def tensor(v1: DecoratedComplex, v2: DecoratedComplex) -> DecoratedComplex:
    """Tensor product: additive filters and parities, summed period group,
    differential with the Koszul sign on the second factor."""
    if v1.field != v2.field:
        raise FieldMismatchError("tensor factors over different base fields")
    field = v1.field
    n1, n2 = v1.dim, v2.dim
    labels, parities, filters = [], [], []
    for i in range(n1):
        for j in range(n2):
            labels.append(f"{v1.labels[i]}(x){v2.labels[j]}")
            parities.append((v1.parities[i] + v2.parities[j]) % 2)
            filters.append(v1.filters[i] + v2.filters[j])

    def t(i, j):
        return i * n2 + j

    cols = [dict() for _ in range(n1 * n2)]
    minus_one = NovikovScalar.constant(field, -1)
    for i in range(n1):
        for j in range(n2):
            col = cols[t(i, j)]
            for i2, sc in v1.diff[i].items():
                col[t(i2, j)] = sc
            sign = v1.parities[i]
            for j2, sc in v2.diff[j].items():
                val = sc if (sign == 0 or field == "F2") else sc * minus_one
                key = t(i, j2)
                col[key] = col[key] + val if key in col else val
    return DecoratedComplex(field, group_sum(v1.gamma, v2.gamma), labels,
                            parities, filters, cols)


def tensor_element(v1, v2, a: ChainElement, b: ChainElement) -> ChainElement:
    """The element a (x) b of the tensor product complex."""
    n2 = v2.dim
    out = {}
    for i, ca in a.coeffs.items():
        for j, cb in b.coeffs.items():
            out[i * n2 + j] = ca * cb
    return ChainElement(out)


def in_general_position(v1: DecoratedComplex, v2: DecoratedComplex) -> bool:
    """Both generic and the tensor product generic."""
    if not (is_generic(v1) and is_generic(v2)):
        return False
    gamma = group_sum(v1.gamma, v2.gamma)
    sums = {gamma.residue(f1 + f2) for f1 in v1.filters for f2 in v2.filters}
    return len(sums) == v1.dim * v2.dim


def verify_product_formula(v1, v2, a1: HomologyClass, a2: HomologyClass,
                           sb1=None, sb2=None):
    """Compare c(a1 (x) a2) with c(a1) + c(a2) on the tensor complex.

    Returns a dict report with both sides; raises NotGenericError when the
    complexes are not generic and in general position (perturb first with
    make_generic / make_generic_pair).
    """
    if not (is_generic(v1) and is_generic(v2)):
        raise NotGenericError(
            "factors must be generic; apply make_generic first")
    if not in_general_position(v1, v2):
        raise NotGenericError(
            "factors not in general position; apply make_generic_pair first")
    if a1.is_zero() or a2.is_zero():
        raise ComplexError("classes must be nonzero")
    sb1 = sb1 or spectral_basis(v1)
    sb2 = sb2 or spectral_basis(v2)
    prod = tensor(v1, v2)
    r1 = canonical_representative(v1, sb1, a1)
    r2 = canonical_representative(v2, sb2, a2)
    cycle = tensor_element(v1, v2, r1, r2)
    lhs = spectral_invariant_of_cycle(prod, cycle)
    c1 = spectral_invariant(v1, sb1, a1)
    c2 = spectral_invariant(v2, sb2, a2)
    rhs = c1 + c2
    return {
        "lhs": lhs,
        "rhs": rhs,
        "c1": c1,
        "c2": c2,
        "equal": lhs == rhs,
    }


# ---------------------------------------------------------------------------
# filter perturbations

def perturb_filter(v: DecoratedComplex, delta):
    """New complex with filter F + delta (delta: constant or per-basis map).

    The perturbed filter must still strictly decrease under d, otherwise
    a ComplexError lists the violations.
    """
    if isinstance(delta, (int, Fraction, str)):
        d = [Fraction(delta)] * v.dim
    else:
        d = [Fraction(delta.get(lbl, delta.get(i, 0)))
             for i, lbl in enumerate(v.labels)]
    new_filters = [f + x for f, x in zip(v.filters, d)]
    return v.with_filters(new_filters)


def _filter_margin(v: DecoratedComplex) -> Fraction:
    """Smallest gap F(x_j) - F(d x_j) over basis vectors with d x_j != 0."""
    margin = None
    for j in range(v.dim):
        img = ChainElement(v.diff[j])
        if img.is_zero():
            continue
        gap = v.filters[j] - filter_value(v, img)
        margin = gap if margin is None else min(margin, gap)
    return margin


def _safe_step(eps: Fraction, coeff_bound: int,
               pair_constraints, margin) -> Fraction:
    """A step h > 0 such that i*h perturbations with |coeff| <= coeff_bound
    break all period-coset coincidences while staying within eps and
    preserving the filter decrease."""
    h = Fraction(eps, max(coeff_bound, 1))
    if margin is not None:
        h = min(h, Fraction(margin, 2 * coeff_bound + 2))
    for gamma, diff in pair_constraints:
        if gamma.contains(diff):
            g = gamma.generator
            if g > 0:
                h = min(h, Fraction(g, coeff_bound + 1))
        else:
            dist = gamma.distance(diff)
            if dist > 0:
                h = min(h, Fraction(dist, coeff_bound + 1))
    return h


def make_generic(v: DecoratedComplex, eps, direction=1) -> DecoratedComplex:
    """Perturb the filter by at most eps (in sup norm) to a generic one.

    Already-generic complexes are returned unchanged.  The perturbation of
    basis vector i is direction * i * h for an exactly computed safe step h,
    so all pairwise filter differences leave their period cosets while the
    strict filter decrease survives.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ComplexError("eps must be positive")
    if direction not in (1, -1):
        raise ComplexError("direction must be +1 or -1")
    if is_generic(v):
        return v
    n = v.dim
    constraints = [(v.gamma, v.filters[i] - v.filters[j])
                   for i in range(n) for j in range(i + 1, n)]
    h = _safe_step(eps, n, constraints, _filter_margin(v))
    new_filters = [f + direction * i * h for i, f in enumerate(v.filters)]
    out = v.with_filters(new_filters)
    if not is_generic(out):
        raise ComplexError("perturbation failed to reach a generic filter")
    return out


def make_generic_pair(v1, v2, eps):
    """Perturb both filters by at most eps so the pair is generic and in
    general position (the tensor product is generic)."""
    eps = Fraction(eps)
    if in_general_position(v1, v2):
        return v1, v2
    n1, n2 = v1.dim, v2.dim
    gamma = group_sum(v1.gamma, v2.gamma)
    coeff_bound = (n1 - 1) + (n1 + 1) * (n2 - 1) + 1
    constraints = []
    pairs = [(i, j) for i in range(n1) for j in range(n2)]
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            (i, j), (i2, j2) = pairs[a], pairs[b]
            diff = (v1.filters[i] + v2.filters[j]) - (v1.filters[i2] + v2.filters[j2])
            constraints.append((gamma, diff))
    m1, m2 = _filter_margin(v1), _filter_margin(v2)
    margins = [m for m in (m1, m2) if m is not None]
    margin = min(margins) if margins else None
    h = _safe_step(eps, coeff_bound, constraints, margin)
    f1 = [f + i * h for i, f in enumerate(v1.filters)]
    f2 = [f + (n1 + 1) * j * h for j, f in enumerate(v2.filters)]
    w1, w2 = v1.with_filters(f1), v2.with_filters(f2)
    if not in_general_position(w1, w2):
        raise ComplexError("pair perturbation failed")
    return w1, w2


def spectral_invariant_interval(v: DecoratedComplex, cycle: ChainElement, eps):
    """Two-sided bracket for c([cycle]) on a possibly non-generic complex.

    Perturbing the filter down and up by at most eps gives monotone bounds;
    the interval has width at most 2*eps.
    """
    eps = Fraction(eps)
    if is_generic(v):
        c = spectral_invariant_of_cycle(v, cycle)
        return (c, c)
    lo_cx = make_generic(v, eps, direction=-1)
    hi_cx = make_generic(v, eps, direction=1)
    return (spectral_invariant_of_cycle(lo_cx, cycle),
            spectral_invariant_of_cycle(hi_cx, cycle))


def rescale_basis_vector(v: DecoratedComplex, i: int, alpha) -> DecoratedComplex:
    """Replace x_i by s^alpha x_i (alpha in Gamma) and shift its filter by alpha.

    Homology classes of cycles are unchanged under the induced identification;
    spectral invariants are preserved.
    """
    alpha = Fraction(alpha)
    if not v.gamma.contains(alpha):
        raise ComplexError("alpha must lie in the period group")
    s_a = NovikovScalar.monomial(v.field, 1, alpha)
    s_ma = NovikovScalar.monomial(v.field, 1, -alpha)
    cols = [dict(c) for c in v.diff]
    # d(x_i' ) = s^alpha d(x_i); coefficient of x_i in d(x_j) picks s^{-alpha}
    cols[i] = {r: sc * s_a for r, sc in cols[i].items()}
    for j in range(v.dim):
        if j != i and i in cols[j]:
            cols[j][i] = cols[j][i] * s_ma
    filters = list(v.filters)
    filters[i] = filters[i] + alpha
    return DecoratedComplex(v.field, v.gamma, v.labels, v.parities, filters, cols)
