"""Exact Gauss-Jordan elimination over the Novikov field and the rationals.

Matrices are dense lists of rows, reduced by one kernel, :func:`_echelon`.
The fields differ only in the zero test and the pivot rule.  Over the
Novikov field (``NovikovScalar`` rows; the public functions here) the pivot
of a column is its entry of maximal valuation, ties to the lowest row, which
mirrors the numerically stable choice.  Over the rationals (``Fraction``
rows; the ``mat_*``, ``solve_linear`` and ``nullspace_basis`` functions of
:mod:`rational_geometry`) it is the first nonzero entry.  Every returned
value is unique in exact arithmetic, so none depends on the pivot rule.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, NamedTuple

from .novikov import F2, QMODEL, NovikovScalar


class _Field(NamedTuple):
    zero: object
    one: object
    is_zero: Callable
    pivot_key: Callable | None  # None: the first nonzero entry is the pivot


_NOVIKOV = {f: _Field(NovikovScalar.zero(f), NovikovScalar.one(f),
                      NovikovScalar.is_zero, NovikovScalar.valuation)
            for f in (F2, QMODEL)}
_RATIONALS = _Field(Fraction(0), Fraction(1), operator.not_, None)


def zeros(field, m, n):
    return [[_NOVIKOV[field].zero] * n for _ in range(m)]


def identity(field, n):
    fld = _NOVIKOV[field]
    return [[fld.one if i == j else fld.zero for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    field = a[0][0].field if a and a[0] else v[0].field
    out = []
    for row in a:
        acc = NovikovScalar.zero(field)
        for x, y in zip(row, v):
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        out.append(acc)
    return out


def mat_mul(a, b):
    field = a[0][0].field
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(field, n, m)
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for t in range(k):
            x = arow[t]
            if x.is_zero():
                continue
            brow = b[t]
            for j in range(m):
                y = brow[j]
                if not y.is_zero():
                    orow[j] = orow[j] + x * y
    return out


def _echelon(fld: _Field, rows, ncols):
    """Gauss-Jordan elimination of ``rows`` in place on its first ``ncols`` columns.

    Column by column, the pivot is the first nonzero entry among the unused
    rows, or the one maximizing ``fld.pivot_key`` (ties to the lowest row);
    its column is cleared in every other row, augmented columns included.
    Rows are never swapped, and cleared entries are left unwritten: they are
    zero and never read.  Returns the pivots ``[(row, col)]`` in column order.
    """
    is_zero, key = fld.is_zero, fld.pivot_key
    free = list(range(len(rows)))
    pivots = []
    for j in range(ncols):
        candidates = [i for i in free if not is_zero(rows[i][j])]
        if not candidates:
            continue
        if key is None:
            r = candidates[0]
        else:
            r = max(candidates, key=lambda i: key(rows[i][j]))
        free.remove(r)
        pivots.append((r, j))
        prow = rows[r]
        piv = prow[j]
        support = [t for t in range(j + 1, len(prow)) if not is_zero(prow[t])]
        for i, row in enumerate(rows):
            if i != r and not is_zero(row[j]):
                f = row[j] / piv
                for t in support:
                    row[t] = row[t] - f * prow[t]
    return pivots


def _solve(fld: _Field, a, b):
    """One solution X (free variables 0) of a X = b for an m x p matrix b, or None."""
    n = len(a[0])
    rows = [list(r) + list(b[i]) for i, r in enumerate(a)]
    pivots = _echelon(fld, rows, n)
    pivot_rows = {r for r, _ in pivots}
    for i, row in enumerate(rows):
        if i not in pivot_rows and not all(map(fld.is_zero, row[n:])):
            return None
    x = [[fld.zero] * len(b[0]) for _ in range(n)]
    for r, c in pivots:
        x[c] = [y / rows[r][c] for y in rows[r][n:]]
    return x


def _nullspace(fld: _Field, a):
    n = len(a[0])
    rows = [list(r) for r in a]
    pivots = _echelon(fld, rows, n)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        v = [fld.zero] * n
        v[fc] = fld.one
        for r, c in pivots:
            # pivot row r reads rows[r][c] * x_c + rows[r][fc] * x_fc + ... = 0
            if not fld.is_zero(rows[r][fc]):
                v[c] = -(rows[r][fc] / rows[r][c])
        basis.append(v)
    return basis


def _det(fld: _Field, a):
    n = len(a)
    rows = [list(r) for r in a]
    pivots = _echelon(fld, rows, n)
    if len(pivots) < n:
        return fld.zero
    d = fld.one
    for r, c in pivots:
        d = d * rows[r][c]
    # the pivot of column c sits in row order[c]: det is the product times sign(order)
    order = [r for r, _ in pivots]
    inversions = sum(p > q for i, p in enumerate(order) for q in order[i + 1:])
    return -d if inversions % 2 else d


def rank(a) -> int:
    if not a or not a[0]:
        return 0
    return len(_echelon(_NOVIKOV[a[0][0].field], [list(r) for r in a], len(a[0])))


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent.

    a: m x n matrix, b: length-m vector.  Free variables are set to 0.
    """
    if not a:
        return [] if all(x.is_zero() for x in b) else None
    field = a[0][0].field if a[0] else b[0].field
    x = _solve(_NOVIKOV[field], a, [[y] for y in b])
    return None if x is None else [y for y, in x]


def nullspace(a):
    """Basis of the kernel of a (list of length-n vectors)."""
    if not a or not a[0]:
        return []
    return _nullspace(_NOVIKOV[a[0][0].field], a)


def det(a) -> NovikovScalar:
    if not a:
        raise ValueError("empty matrix")
    return _det(_NOVIKOV[a[0][0].field], a)


def inverse(a):
    """The inverse of the square matrix a, or None if a is singular."""
    field = a[0][0].field
    return _solve(_NOVIKOV[field], a, identity(field, len(a)))
