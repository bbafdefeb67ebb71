"""Finite-rank graded commutative algebras over the Novikov field.

An algebra is given by a structure-constant table on a graded basis of
even-degree classes; the product of two basis classes is a combination of
basis classes with Laurent-in-q coefficients.  The top-degree part (the
degree-2n slice) is a finite-rank algebra over the scalar field and hosts
idempotent, semisimplicity and divisibility analysis.

An algebra is immutable after construction: nothing changes its table, so
the slice's structure constants are built once, on first use, and shared by
every later product, trace and multiplication matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from . import linalg
from .novikov import (
    F2,
    QMODEL,
    FieldMismatchError,
    LambdaElement,
    NovikovScalar,
    PeriodGroup,
    group_sum,
)


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class GradedBasis:
    labels: tuple
    degrees: tuple          # even, in [0, 2n]
    dimension_2n: int
    unity_index: int
    point_index: int

    def __post_init__(self):
        if len(self.labels) != len(self.degrees):
            raise AlgebraError("labels/degrees length mismatch")
        if self.dimension_2n % 2:
            raise AlgebraError("dimension_2n must be even")
        for d in self.degrees:
            if d % 2 or d < 0 or d > self.dimension_2n:
                raise AlgebraError(f"bad class degree {d}")
        top = [i for i, d in enumerate(self.degrees) if d == self.dimension_2n]
        bot = [i for i, d in enumerate(self.degrees) if d == 0]
        if top != [self.unity_index] or len(top) != 1:
            raise AlgebraError("exactly one class of top degree (the unity) required")
        if bot != [self.point_index] or len(bot) != 1:
            raise AlgebraError("exactly one class of degree 0 (the point) required")

    @property
    def rank(self):
        return len(self.labels)

    def index_of(self, label):
        return self.labels.index(label)


class QHElement:
    """Element of the algebra: class index -> LambdaElement coefficient."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        c = {}
        for i, lam in coeffs.items():
            if not isinstance(lam, LambdaElement):
                raise TypeError("coefficients must be LambdaElement")
            if lam.field != algebra.field:
                raise FieldMismatchError("coefficient field mismatch")
            if not lam.is_zero():
                c[int(i)] = lam
        self.coeffs = c

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        c = dict(self.coeffs)
        for i, lam in other.coeffs.items():
            c[i] = c[i] + lam if i in c else lam
        return QHElement(self.algebra, c)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QHElement(self.algebra, {i: -l for i, l in self.coeffs.items()})

    def scale(self, lam: LambdaElement):
        return QHElement(self.algebra, {i: l * lam for i, l in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, QHElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted((i, hash(l)) for i, l in self.coeffs.items())))

    def degree(self):
        """Total degree if homogeneous, else None.  Zero element: None."""
        degs = set()
        for i, lam in self.coeffs.items():
            base = self.algebra.basis.degrees[i]
            for k in lam.q_powers():
                degs.add(base + 2 * k)
        if len(degs) == 1:
            return degs.pop()
        return None

    def to_text(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            parts.append(f"({self.coeffs[i].to_text()})*{self.algebra.basis.labels[i]}")
        return " + ".join(parts)

    def __repr__(self):
        return f"QHElement({self.to_text()})"


class QuantumAlgebra:
    """Structure-constant algebra over the Novikov field.

    table[(i, j)] maps a class index k to the LambdaElement coefficient of
    basis class k in the product b_i * b_j.  Only i <= j needs storing;
    lookups symmetrize.
    """

    def __init__(self, field, basis: GradedBasis, gamma: PeriodGroup, table,
                 kappa=None, name=""):
        self.field = field
        self.basis = basis
        self.gamma = gamma
        self.kappa = Fraction(kappa) if kappa is not None else None
        self.name = name
        t = {}
        for (i, j), entry in table.items():
            key = (min(i, j), max(i, j))
            cleaned = {int(k): lam for k, lam in entry.items() if not lam.is_zero()}
            if key in t and t[key] != cleaned:
                raise AlgebraError(f"conflicting table entries for {key}")
            t[key] = cleaned
        self.table = t
        self._top_slice = None

    def __eq__(self, other):
        if not isinstance(other, QuantumAlgebra):
            return NotImplemented
        return (self.field == other.field and self.basis == other.basis
                and self.gamma == other.gamma and self.table == other.table)

    @property
    def rank(self):
        return self.basis.rank

    def entry(self, i, j):
        return self.table.get((min(i, j), max(i, j)), {})

    def zero(self):
        return QHElement(self, {})

    def basis_element(self, i, qpow=0, scalar=None):
        lam = LambdaElement.q_power(self.field, qpow, scalar)
        return QHElement(self, {i: lam})

    def unity(self):
        return self.basis_element(self.basis.unity_index)

    def point(self):
        return self.basis_element(self.basis.point_index)

    # ------------------------------------------------------------------
    def check_axioms(self, deep=True):
        """Verify commutativity (by storage), unity, grading, associativity.

        Returns a list of violation strings (empty = all axioms hold).  The
        table is symmetric by storage, so (b_x b_y) b_z = sum_m T[x][y][m] T[m][z]
        depends only on the pair {x, y} and z, and b_i (b_j b_k) = (b_j b_k) b_i.
        The deep check reads each such product once from the table.
        """
        bad, r, labels = [], self.rank, self.basis.labels
        n2, degrees = self.basis.dimension_2n, self.basis.degrees
        for i in range(r):
            if qprod(self, self.unity(), self.basis_element(i)) != self.basis_element(i):
                bad.append(f"unity fails on class {labels[i]}")
        for (i, j), entry in self.table.items():
            want = degrees[i] + degrees[j] - n2
            for k, lam in entry.items():
                for qp in lam.q_powers():
                    if degrees[k] + 2 * qp != want:
                        bad.append(f"grading fails in {labels[i]}*{labels[j]}"
                                   f" at class {labels[k]} q^{qp}")
                if not lam.exponents_in(self.gamma):
                    bad.append(f"exponent outside period group in {labels[i]}*{labels[j]}")
        if deep:
            failing = set()
            for i, j, k in combinations_with_replacement(range(r), 3):
                # (b_x b_y) b_z over the multiset {i, j, k} depends only on z
                by_last = {}
                for x, y, z in ((i, j, k), (i, k, j), (j, k, i)):
                    if z not in by_last:
                        by_last[z] = self._bracket(x, y, z)
                failing.update(t for t in permutations((i, j, k)) if by_last[t[2]] != by_last[t[0]])
            bad += [f"associativity fails on ({labels[i]},{labels[j]},{labels[k]})"
                    for i, j, k in sorted(failing)]
        return bad

    def _bracket(self, i, j, k):
        """(b_i b_j) b_k as {class: coefficient}, read from the table."""
        out = {}
        for m, lam in self.entry(i, j).items():
            for n, c in self.entry(m, k).items():
                out[n] = out[n] + lam * c if n in out else lam * c
        return {n: x for n, x in out.items() if not x.is_zero()}

    # -- the top-degree slice as a scalar-field algebra -----------------
    def top_slice_constants(self):
        """Structure constants over the scalar field of the degree-2n part.

        Basis vector i of the slice is b_i * q^{r_i} with r_i = (2n - deg_i)/2.
        Returns c[i][j] = dict {k: NovikovScalar}, built on the first call
        and returned as the same object afterwards.
        """
        if self._top_slice is None:
            r = self.rank
            # grading forces a single q-power per class
            self._top_slice = tuple(
                tuple({k: lam.coefficient(qp) for k, lam in self.entry(i, j).items()
                       for qp in lam.q_powers()} for j in range(r))
                for i in range(r))
        return self._top_slice

    def to_top_slice(self, x: QHElement):
        """Coordinates of a homogeneous element in the degree-2n slice."""
        coords = [NovikovScalar.zero(self.field)] * self.rank
        if x.is_zero():
            return coords
        if x.degree() is None:
            raise AlgebraError("element is not degree-homogeneous")
        for i, lam in x.coeffs.items():
            for qp in lam.q_powers():
                coords[i] = lam.coefficient(qp)
        return coords

    def from_top_slice(self, coords, degree):
        """Element of the given degree with the given slice coordinates."""
        c = {}
        for i, sc in enumerate(coords):
            if sc.is_zero():
                continue
            shift = degree - self.basis.degrees[i]
            if shift % 2:
                raise AlgebraError("degree parity mismatch")
            c[i] = LambdaElement.q_power(self.field, shift // 2, sc)
        return QHElement(self, c)

    def multiplication_matrix(self, coords):
        """Matrix of multiplication by the slice element with given coordinates."""
        consts = self.top_slice_constants()
        r = self.rank
        m = linalg.zeros(self.field, r, r)
        for i, ci in enumerate(coords):
            if ci.is_zero():
                continue
            for j in range(r):
                for k, sc in consts[i][j].items():
                    m[k][j] = m[k][j] + ci * sc
        return m


def qprod(algebra: QuantumAlgebra, x: QHElement, y: QHElement) -> QHElement:
    if any(z.algebra is not algebra and z.algebra != algebra for z in (x, y)):
        raise AlgebraError("elements of a different algebra")
    out = {}
    for i, li in x.coeffs.items():
        for j, lj in y.coeffs.items():
            lam = li * lj
            for k, ck in algebra.entry(i, j).items():
                p = lam * ck
                out[k] = out[k] + p if k in out else p
    return QHElement(algebra, out)


def is_idempotent(algebra: QuantumAlgebra, x: QHElement) -> bool:
    return qprod(algebra, x, x) == x


def frobenius(algebra: QuantumAlgebra, x: QHElement, y: QHElement):
    """Base-field pairing: free term of the q^0 point-class coefficient of x*y."""
    zero = LambdaElement.zero(algebra.field)
    lam = qprod(algebra, x, y).coeffs.get(algebra.basis.point_index, zero)
    return lam.coefficient(0).free_term()


def frobenius_gram(algebra: QuantumAlgebra):
    """Gram matrix of the series pairing on the class basis.

    The pairing couples classes of complementary degrees (the q^0 point
    coefficient of b_i * b_j vanishes unless deg_i + deg_j = 2n), so the
    Gram matrix is antidiagonal-ish; full rank means nondegeneracy.  Entry
    (i, j) is read from the table: the q^0 coefficient of T[i][j][point].
    """
    r, zero = algebra.rank, LambdaElement.zero(algebra.field)
    return [[algebra.entry(i, j).get(algebra.basis.point_index, zero).coefficient(0)
             for j in range(r)] for i in range(r)]


# ---------------------------------------------------------------------------
# semisimplicity

@dataclass
class SemisimplicityResult:
    verdict: str                 # "semisimple" | "not_semisimple" | "inconclusive"
    reason: str = ""
    witness: object = None       # idempotents / nilpotent element, when available

    def __bool__(self):
        return self.verdict == "semisimple"


def _nilpotent_scan(algebra, consts):
    """Cheap scan: does some slice basis vector have a vanishing power?"""
    r = algebra.rank
    for i in range(r):
        if i == algebra.basis.unity_index:
            continue
        coords = _unit_vector(algebra, i)
        cur = coords
        for _ in range(r + 1):
            cur = _slice_mul(algebra, consts, cur, coords)
            if all(c.is_zero() for c in cur):
                return i
    return None


def _slice_mul(algebra, consts, a, b):
    r = algebra.rank
    out = [NovikovScalar.zero(algebra.field)] * r
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if bj.is_zero():
                continue
            for k, sc in consts[i][j].items():
                out[k] = out[k] + ai * bj * sc
    return out


def _is_pth_power_in_rationals(x: Fraction, p: int):
    """True / False / None(=unknown is impossible over Q; always decided)."""
    if x == 0:
        return True
    if p % 2 == 0 and x < 0:
        return False
    sign = -1 if x < 0 else 1
    num, den = abs(x.numerator), x.denominator

    def root(n):
        r = round(n ** (1.0 / p))
        for c in (r - 1, r, r + 1):
            if c >= 0 and c ** p == n:
                return c
        return None

    rn, rd = root(num), root(den)
    return rn is not None and rd is not None and (sign == 1 or p % 2 == 1)


def _not_pth_power_certificate(c: NovikovScalar, p: int, gamma: PeriodGroup):
    """True if c is certifiably not a p-th power in the scalar field."""
    nu = c.valuation()
    if not gamma.contains(Fraction(nu) / p):
        return True
    if c.field == QMODEL:
        lead = c.leading_coefficient()
        if _is_pth_power_in_rationals(lead, p) is False:
            return True
    return False


def _prime_factors(m):
    out, d = set(), 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return sorted(out)


def _cyclic_monomial_presentation(algebra, consts, unit_coords, sub_basis):
    """Search a generator X in the span of sub_basis with X^m = c * unit.

    sub_basis: list of slice coordinate vectors forming a subalgebra basis
    whose unity has coordinates unit_coords.  Returns (m, c) or None.
    """
    r = algebra.rank
    m = len(sub_basis)
    if m < 2:
        return None
    for gen in sub_basis:
        if gen == unit_coords:
            continue
        powers = [unit_coords]
        cur = unit_coords
        ok = True
        for _ in range(m):
            cur = _slice_mul(algebra, consts, cur, gen)
            powers.append(cur)
        # require 1, X, ..., X^{m-1} independent and X^m = c * 1
        mat = [[powers[t][i] for t in range(m)] for i in range(r)]
        if linalg.rank(mat) != m:
            continue
        xm = powers[m]
        sol = linalg.solve([[unit_coords[i]] for i in range(r)], xm)
        if sol is None:
            continue
        c = sol[0]
        # confirm X^m really is c*unit
        recon = [unit_coords[i] * c for i in range(r)]
        if recon != xm:
            continue
        if not c.is_zero():
            return (m, c)
    return None


def is_semisimple(algebra: QuantumAlgebra, decomposition=None) -> SemisimplicityResult:
    """Decide semisimplicity of the degree-2n slice algebra.

    Over the rational model the trace form decides completely.  In
    characteristic 2 the trace criterion is unsound, so only explicit
    certificates are accepted: a vanishing power of a basis vector, a
    user-supplied orthogonal idempotent decomposition, or an X^m - c
    presentation with certified irreducibility.  Anything else is
    reported as inconclusive rather than guessed.
    """
    consts = algebra.top_slice_constants()
    r = algebra.rank

    nil = _nilpotent_scan(algebra, consts)
    if nil is not None:
        shift = (algebra.basis.dimension_2n - algebra.basis.degrees[nil]) // 2
        wit = algebra.basis_element(nil, shift)
        return SemisimplicityResult(
            "not_semisimple",
            f"basis class {algebra.basis.labels[nil]} is nilpotent in the top slice",
            wit)

    if algebra.field == QMODEL:
        # the trace form is nondegenerate iff there is no radical (char 0)
        gram = _trace_form(algebra)
        d = linalg.det(gram)
        if not d.is_zero():
            return SemisimplicityResult(
                "semisimple", f"trace form nondegenerate, det = {d.to_text()}")
        kernel = linalg.nullspace(gram)
        v = kernel[0]
        # radical element: verify nilpotency explicitly
        cur = v
        power = 1
        while not all(c.is_zero() for c in cur):
            cur = _slice_mul(algebra, consts, cur, v)
            power += 1
            if power > r + 1:
                break
        wit = algebra.from_top_slice(v, algebra.basis.dimension_2n)
        return SemisimplicityResult(
            "not_semisimple",
            f"trace form degenerate; radical element with x^{power} = 0", wit)

    # characteristic 2 routes
    unit_coords = _unit_vector(algebra, algebra.basis.unity_index)

    if decomposition is not None:
        total = algebra.zero()
        for e in decomposition:
            if e.is_zero() or not is_idempotent(algebra, e):
                return SemisimplicityResult(
                    "inconclusive", "supplied decomposition is not by nonzero idempotents")
            total = total + e
        for a_i in range(len(decomposition)):
            for b_i in range(a_i + 1, len(decomposition)):
                if not qprod(algebra, decomposition[a_i], decomposition[b_i]).is_zero():
                    return SemisimplicityResult(
                        "inconclusive", "supplied idempotents are not orthogonal")
        if total != algebra.unity():
            return SemisimplicityResult(
                "inconclusive", "supplied idempotents do not sum to the unity")
        # each summand e*Q must be a field
        for e in decomposition:
            ec = algebra.to_top_slice(e)
            mat = algebra.multiplication_matrix(ec)
            sub_rank = linalg.rank(mat)
            if sub_rank == 1:
                continue
            sub_basis = _independent_subset([list(col) for col in zip(*mat)], sub_rank)
            pres = _cyclic_monomial_presentation(algebra, consts, ec, sub_basis)
            if pres is None:
                return SemisimplicityResult(
                    "inconclusive",
                    "summand has rank > 1 and no certified monomial presentation")
            m, c = pres
            if not _certify_irreducible_binomial(c, m, algebra.gamma):
                return SemisimplicityResult(
                    "inconclusive", f"cannot certify irreducibility of X^{m} - c in a summand")
        return SemisimplicityResult(
            "semisimple", "orthogonal idempotent decomposition into fields verified",
            list(decomposition))

    pres = _cyclic_monomial_presentation(
        algebra, consts, unit_coords,
        [_unit_vector(algebra, i) for i in range(r)])
    if pres is not None:
        m, c = pres
        if _certify_irreducible_binomial(c, m, algebra.gamma):
            return SemisimplicityResult(
                "semisimple",
                f"cyclic presentation X^{m} = c with X^{m} - c certified irreducible "
                f"(c = {c.to_text()}); the algebra is a field")
        return SemisimplicityResult(
            "inconclusive", f"presentation X^{m} = c found but irreducibility not certified")
    return SemisimplicityResult(
        "inconclusive",
        "characteristic 2: no nilpotent found, no decomposition supplied, "
        "no monomial presentation detected")


def _trace_form(algebra):
    """Gram matrix of T(e_i, e_j) = tr L_{e_i e_j} = sum_k c_ij^k tr L_{e_k}
    on the slice basis, with the class traces tr L_{e_k} = sum_j c_kj^j."""
    consts = algebra.top_slice_constants()
    r = algebra.rank
    zero = NovikovScalar.zero(algebra.field)
    traces = [sum((consts[k][j][j] for j in range(r) if j in consts[k][j]), zero)
              for k in range(r)]
    return [[sum((sc * traces[k] for k, sc in consts[i][j].items()), zero)
             for j in range(r)] for i in range(r)]


def _unit_vector(algebra, i):
    v = [NovikovScalar.zero(algebra.field)] * algebra.rank
    v[i] = NovikovScalar.one(algebra.field)
    return v


def _independent_subset(vectors, target_rank):
    out = []
    for v in vectors:
        cand = out + [v]
        mat = [[c[i] for c in cand] for i in range(len(v))]
        if linalg.rank(mat) == len(cand):
            out.append(v)
        if len(out) == target_rank:
            break
    return out


def _certify_irreducible_binomial(c: NovikovScalar, m: int, gamma: PeriodGroup) -> bool:
    """Certify X^m - c irreducible: c not a p-th power for primes p | m,
    and (characteristic 0, 4 | m) c not in -4 K^4."""
    for p in _prime_factors(m):
        if not _not_pth_power_certificate(c, p, gamma):
            return False
    if m % 4 == 0 and c.field == QMODEL:
        nu = c.valuation()
        if gamma.contains(Fraction(nu) / 4):
            lead = c.leading_coefficient()
            if _is_pth_power_in_rationals(lead / -4, 4) is not False:
                return False
    return True


# ---------------------------------------------------------------------------
# division

def divide(algebra: QuantumAlgebra, c: QHElement, a: QHElement):
    """Element x with c * x = a, or None when no solution exists.

    c and a must be degree-homogeneous (a may be zero).  The problem
    reduces to a linear system over the scalar field in the top slice.
    """
    if c.is_zero():
        return None if not a.is_zero() else algebra.zero()
    deg_c = c.degree()
    if deg_c is None:
        raise AlgebraError("divisor must be degree-homogeneous")
    if a.is_zero():
        return algebra.zero()
    deg_a = a.degree()
    if deg_a is None:
        raise AlgebraError("dividend must be degree-homogeneous")
    n2 = algebra.basis.dimension_2n
    deg_x = deg_a - deg_c + n2
    mat = algebra.multiplication_matrix(algebra.to_top_slice(c))
    rhs = algebra.to_top_slice(a)
    sol = linalg.solve(mat, rhs)
    if sol is None:
        return None
    return algebra.from_top_slice(sol, deg_x)


# ---------------------------------------------------------------------------
# Kunneth product of algebras

def kunneth(a1: QuantumAlgebra, a2: QuantumAlgebra) -> QuantumAlgebra:
    """Product algebra on the tensor basis, scalars over the summed period group.

    Structure constants multiply factor-wise; Koszul signs vanish because
    all classes have even degree (and are absent over GF(2) anyway).
    """
    if a1.field != a2.field:
        raise FieldMismatchError("base field mismatch")
    field = a1.field
    n1, n2 = a1.rank, a2.rank
    labels, degrees = [], []
    for i in range(n1):
        for j in range(n2):
            labels.append(f"{a1.basis.labels[i]}x{a2.basis.labels[j]}")
            degrees.append(a1.basis.degrees[i] + a2.basis.degrees[j])
    dim = a1.basis.dimension_2n + a2.basis.dimension_2n

    def tidx(i, j):
        return i * n2 + j

    basis = GradedBasis(tuple(labels), tuple(degrees), dim,
                        tidx(a1.basis.unity_index, a2.basis.unity_index),
                        tidx(a1.basis.point_index, a2.basis.point_index))
    gamma = group_sum(a1.gamma, a2.gamma)
    table = {}
    for i1 in range(n1):
        for j1 in range(n2):
            for i2 in range(n1):
                for j2 in range(n2):
                    if tidx(i1, j1) > tidx(i2, j2):
                        continue
                    e1 = a1.entry(i1, i2)
                    e2 = a2.entry(j1, j2)
                    entry = {}
                    for k1, l1 in e1.items():
                        for k2, l2 in e2.items():
                            lam = l1 * l2
                            k = tidx(k1, k2)
                            entry[k] = entry[k] + lam if k in entry else lam
                    if entry:
                        table[(tidx(i1, j1), tidx(i2, j2))] = entry
    kappa = a1.kappa if (a1.kappa is not None and a1.kappa == a2.kappa) else None
    return QuantumAlgebra(field, basis, gamma, table, kappa,
                          name=f"{a1.name}x{a2.name}" if a1.name and a2.name else "")


def tables_equal(a: QuantumAlgebra, b: QuantumAlgebra, index_map=None) -> bool:
    """Entry-by-entry table comparison, optionally through an index relabeling a->b."""
    if index_map is None:
        index_map = {i: i for i in range(a.rank)}
    if a.rank != b.rank or a.gamma != b.gamma or a.field != b.field:
        return False
    for i in range(a.rank):
        if a.basis.degrees[i] != b.basis.degrees[index_map[i]]:
            return False
    for i in range(a.rank):
        for j in range(i, a.rank):
            ea = a.entry(i, j)
            eb = b.entry(index_map[i], index_map[j])
            ea_m = {index_map[k]: lam for k, lam in ea.items()}
            if ea_m != eb:
                return False
    return True


# ---------------------------------------------------------------------------
# degree-counting checks

def albers_check(dim_l: int, n_l, deg_s: int) -> bool:
    """Strict inequality deg S > dim L + 1 - N_L; N_L may be None for infinity."""
    if n_l is not None and n_l < 2:
        raise ValueError("minimal Maslov number must be at least 2")
    if n_l is None:
        return True
    return deg_s > dim_l + 1 - n_l


def semisimplicity_obstruction(m: int, beta_y: int) -> bool:
    """True when m pairwise disjoint Lagrangians force non-semisimplicity."""
    if m < 1 or beta_y < 0:
        raise ValueError("need m >= 1 and beta >= 0")
    return m > beta_y + 1


# ---------------------------------------------------------------------------
# built-in algebras

def projective_space(n: int, field=F2, kappa=Fraction(1)) -> QuantumAlgebra:
    """Ring of complex projective n-space: powers of the hyperplane class.

    Classes a_0 = [M], a_1 = hyperplane, ..., a_n = point; a_i a_j = a_{i+j}
    for i+j <= n and a_{i+j-n-1} * s^{-kappa(n+1)} q^{-(n+1)} otherwise.
    """
    kappa = Fraction(kappa)
    labels = ["[M]"]
    for k in range(1, n + 1):
        if k == n:
            labels.append("pt")
        elif k == 1:
            labels.append("A")
        else:
            labels.append(f"A^{k}")
    degrees = tuple(2 * n - 2 * k for k in range(n + 1))
    basis = GradedBasis(tuple(labels), degrees, 2 * n, 0, n)
    gamma = PeriodGroup(kappa * (n + 1))
    one = LambdaElement.one(field)
    quantum = LambdaElement.q_power(
        field, -(n + 1), NovikovScalar.monomial(field, 1, -kappa * (n + 1)))
    table = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            if i + j <= n:
                table[(i, j)] = {i + j: one}
            else:
                table[(i, j)] = {i + j - n - 1: quantum}
    return QuantumAlgebra(field, basis, gamma, table, kappa, name=f"CP{n}/{field}")


def sphere(kappa=Fraction(1, 2), field=QMODEL) -> QuantumAlgebra:
    """The two-sphere ring: projective line over the rational model."""
    return projective_space(1, field, kappa)


def quadric_surface(kappa=Fraction(1, 2)) -> QuantumAlgebra:
    """Product of two spheres: classes [M], A, B, pt over the rational model.

    With w = s^{2 kappa} q^2: A*A = B*B = w^{-1}[M], A*B = pt,
    A*pt = w^{-1}B, B*pt = w^{-1}A, pt*pt = w^{-2}[M].
    """
    kappa = Fraction(kappa)
    field = QMODEL
    basis = GradedBasis(("[M]", "A", "B", "pt"), (4, 2, 2, 0), 4, 0, 3)
    gamma = PeriodGroup(2 * kappa)
    one = LambdaElement.one(field)
    w_inv = LambdaElement.q_power(field, -2, NovikovScalar.monomial(field, 1, -2 * kappa))
    w_inv2 = LambdaElement.q_power(field, -4, NovikovScalar.monomial(field, 1, -4 * kappa))
    table = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 1): {0: w_inv}, (2, 2): {0: w_inv},
        (1, 2): {3: one},
        (1, 3): {2: w_inv}, (2, 3): {1: w_inv},
        (3, 3): {0: w_inv2},
    }
    return QuantumAlgebra(field, basis, gamma, table, kappa, name="quadric")


def quadric_w(algebra: QuantumAlgebra) -> LambdaElement:
    """The element w = s^{2 kappa} q^2 of the quadric's coefficient ring."""
    kappa = algebra.kappa
    return LambdaElement.q_power(algebra.field, 2,
                                 NovikovScalar.monomial(algebra.field, 1, 2 * kappa))


def torus_classical() -> QuantumAlgebra:
    """Even part of the two-torus with the undeformed product: pt*pt = 0."""
    basis = GradedBasis(("[M]", "pt"), (2, 0), 2, 0, 1)
    return QuantumAlgebra(F2, basis, PeriodGroup.trivial(),
                          {(0, 0): {0: LambdaElement.one(F2)},
                           (0, 1): {1: LambdaElement.one(F2)},
                           (1, 1): {}},
                          None, name="T2-classical")


def quadric_idempotents(algebra: QuantumAlgebra):
    """The pair a_+ = ([M] + pt*w)/2, a_- = ([M] - pt*w)/2."""
    field = algebra.field
    half = NovikovScalar.constant(field, Fraction(1, 2))
    w = quadric_w(algebra)
    m = algebra.unity().scale(LambdaElement(field, {0: half}))
    pw = algebra.point().scale(w).scale(LambdaElement(field, {0: half}))
    return m + pw, m - pw


BUILTIN_ALGEBRAS = {}


def builtin_algebra(name: str) -> QuantumAlgebra:
    """Look up a built-in ring by name (cpn1-f2 .. cpn4-f2, cpn1-q .. , s2, quadric, t2)."""
    if not BUILTIN_ALGEBRAS:
        for n in range(1, 5):
            BUILTIN_ALGEBRAS[f"cpn{n}-f2"] = projective_space(n, F2)
            BUILTIN_ALGEBRAS[f"cpn{n}-q"] = projective_space(n, QMODEL)
        BUILTIN_ALGEBRAS["s2"] = sphere()
        BUILTIN_ALGEBRAS["quadric"] = quadric_surface()
        BUILTIN_ALGEBRAS["t2"] = torus_classical()
    if name not in BUILTIN_ALGEBRAS:
        raise KeyError(f"unknown built-in ring {name!r}; known: {sorted(BUILTIN_ALGEBRAS)}")
    return BUILTIN_ALGEBRAS[name]
