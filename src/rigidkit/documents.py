"""JSON document formats for rings, complexes, paths, frames, polytopes,
bodies and piecewise-linear functions.

Rational numbers are encoded as integers or "p/q" strings.  Loading
validates every type invariant; dumping is canonical (sorted keys, minimal
rationals), so load/dump round-trips reproduce equal objects and equal
bytes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .complexes import DecoratedComplex
from .novikov import (
    F2,
    QMODEL,
    LambdaElement,
    NovikovScalar,
    PeriodGroup,
    parse_scalar,
)
from .quantum import GradedBasis, QuantumAlgebra
from .qstate import PLFunction
from .spindex import LagrangianFrame, MatrixPath
from .toric import ConvexBody, DelzantPolytope, MomentData


class DocumentError(ValueError):
    pass


# Largest C(n, d) * n accepted for a hull of n points in dimension d: the
# exact hull enumerates every d-subset of the points and tests each against
# all n.  The shipped documents and built-ins stay below 100.
MAX_HULL_COST = 50_000

# Largest simplices * vertices accepted for a piecewise-linear function: the
# conformity check solves one barycentric system per simplex and vertex.  The
# shipped vee.pl.json costs 42.
MAX_PL_COST = 5_000

# Largest class count accepted for a ring.  Loading is linear in the table,
# but the commands on a ring are not: the deep associativity check forms
# r^2 (r+1)/2 triple products and the semisimplicity analysis works on r x r
# matrices over the Novikov field.  At rank 32 (five spheres) the deep check
# took 0.65 s on a 2-vCPU VM; the shipped documents and built-ins have rank
# at most 5.
MAX_RING_RANK = 32

# Largest deep-check cost accepted for a ring: over the stored table entries
# (i, j) and the classes m in each, the sum of the number of terms in row m,
# which is the work of forming (b_i b_j) b_z for every z.  The rank bound
# alone lets a dense table through: a rank-16 table with a term at every
# class costs about 5.6e5 and its deep check took 25.8 s on a 2-vCPU VM.
# Five spheres (rank 32), the costliest product of built-ins, cost 16 896.
MAX_RING_COST = 20_000

KINDS = ("ring", "complex", "path", "frame", "polytope", "body", "pl-function")


def _rat_in(x):
    if isinstance(x, bool):
        raise DocumentError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise DocumentError(f"bad rational {x!r}") from e
    raise DocumentError(f"not a rational: {x!r}")


def _rat_out(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _field_in(tag):
    if tag in ("F2", "GF2", "Z2"):
        return F2
    if tag in ("Q", "Qmodel"):
        return QMODEL
    raise DocumentError(f"unknown base field {tag!r}")


def _require(doc, key, kind):
    if key not in doc:
        raise DocumentError(f"{kind} document is missing the field {key!r}")
    return doc[key]


# ---------------------------------------------------------------------------
# per-kind constructors

def ring_from_doc(doc) -> QuantumAlgebra:
    field = _field_in(doc.get("base_field", "Q"))
    dim = int(_require(doc, "dimension_2n", "ring"))
    gamma = PeriodGroup(_rat_in(_require(doc, "gamma_generator", "ring")))
    kappa = doc.get("kappa")
    kappa = _rat_in(kappa) if kappa is not None else None
    classes = _require(doc, "classes", "ring")
    if len(classes) > MAX_RING_RANK:
        raise DocumentError(
            f"ring document: {len(classes)} classes, over the limit {MAX_RING_RANK}")
    labels = tuple(str(c["label"]) for c in classes)
    degrees = tuple(int(c["degree"]) for c in classes)
    unity = _require(doc, "unity", "ring")
    point = _require(doc, "point", "ring")
    if unity not in labels or point not in labels:
        raise DocumentError("unity/point labels not among the classes")
    basis = GradedBasis(labels, degrees, dim, labels.index(unity), labels.index(point))
    table = {}
    for row in _require(doc, "table", "ring"):
        i, j = int(row["i"]), int(row["j"])
        entry = {}
        for term in row.get("terms", []):
            k = int(term["k"])
            qpow = int(term["qpow"])
            sc = parse_scalar(field, str(term["scalar"]))
            lam = LambdaElement.q_power(field, qpow, sc)
            entry[k] = entry[k] + lam if k in entry else lam
        table[(i, j)] = entry
    _check_ring_cost(table)
    alg = QuantumAlgebra(field, basis, gamma, table, kappa, name=doc.get("name", ""))
    bad = alg.check_axioms(deep=len(labels) <= 6)
    if bad:
        raise DocumentError("ring axioms violated: " + "; ".join(bad[:4]))
    return alg


def _check_ring_cost(table):
    """Fail closed before a deep associativity check that would cost more
    than MAX_RING_COST (see there)."""
    row_terms = {}
    for (i, j), entry in table.items():
        for m in {i, j}:
            row_terms[m] = row_terms.get(m, 0) + len(entry)
    cost = sum(row_terms.get(m, 0) for entry in table.values() for m in entry)
    if cost > MAX_RING_COST:
        raise DocumentError(
            f"ring document: the deep associativity check costs {cost},"
            f" over the limit {MAX_RING_COST}")


def ring_to_doc(alg: QuantumAlgebra) -> dict:
    classes = [{"label": l, "degree": d}
               for l, d in zip(alg.basis.labels, alg.basis.degrees)]
    table = []
    for (i, j) in sorted(alg.table):
        terms = []
        for k in sorted(alg.table[(i, j)]):
            lam = alg.table[(i, j)][k]
            for qpow in lam.q_powers():
                terms.append({"k": k, "qpow": qpow,
                              "scalar": lam.coefficient(qpow).to_text()})
        table.append({"i": i, "j": j, "terms": terms})
    doc = {
        "kind": "ring",
        "base_field": alg.field,
        "dimension_2n": alg.basis.dimension_2n,
        "gamma_generator": _rat_out(alg.gamma.generator),
        "classes": classes,
        "unity": alg.basis.labels[alg.basis.unity_index],
        "point": alg.basis.labels[alg.basis.point_index],
        "table": table,
    }
    if alg.kappa is not None:
        doc["kappa"] = _rat_out(alg.kappa)
    if alg.name:
        doc["name"] = alg.name
    return doc


def complex_from_doc(doc) -> DecoratedComplex:
    field = _field_in(doc.get("base_field", "Q"))
    gamma = PeriodGroup(_rat_in(_require(doc, "gamma_generator", "complex")))
    basis = _require(doc, "basis", "complex")
    labels = [str(b["label"]) for b in basis]
    parities = [int(b["parity"]) for b in basis]
    filters = [_rat_in(b["filter"]) for b in basis]
    index = {l: i for i, l in enumerate(labels)}
    cols = [dict() for _ in labels]
    for entry in doc.get("differential", []):
        src, dst = str(entry["from"]), str(entry["to"])
        if src not in index or dst not in index:
            raise DocumentError(f"differential references unknown label {src!r} or {dst!r}")
        sc = parse_scalar(field, str(entry["scalar"]))
        j, i = index[src], index[dst]
        cols[j][i] = cols[j][i] + sc if i in cols[j] else sc
    cx = DecoratedComplex(field, gamma, labels, parities, filters, cols)
    for col in cx.diff:
        for sc in col.values():
            if not sc.exponents_in(gamma):
                raise DocumentError("differential exponents leave the period group")
    return cx


def complex_to_doc(cx: DecoratedComplex) -> dict:
    basis = [{"label": l, "parity": p, "filter": _rat_out(f)}
             for l, p, f in zip(cx.labels, cx.parities, cx.filters)]
    diff = []
    for j, col in enumerate(cx.diff):
        for i in sorted(col):
            diff.append({"from": cx.labels[j], "to": cx.labels[i],
                         "scalar": col[i].to_text()})
    return {
        "kind": "complex",
        "base_field": cx.field,
        "gamma_generator": _rat_out(cx.gamma.generator),
        "basis": basis,
        "differential": diff,
    }


def path_from_doc(doc) -> MatrixPath:
    k = int(_require(doc, "k", "path"))
    segments = []
    for seg in _require(doc, "segments", "path"):
        gen = np.asarray(seg["generator"], dtype=float)
        segments.append((gen, float(seg["duration"])))
    return MatrixPath(k, segments)


def path_to_doc(p: MatrixPath) -> dict:
    return {
        "kind": "path",
        "k": p.k,
        "segments": [{"generator": [[float(x) for x in row] for row in s],
                      "duration": d} for s, d in p.segments],
    }


def frame_from_doc(doc) -> LagrangianFrame:
    cols = np.asarray(_require(doc, "columns", "frame"), dtype=float).T
    return LagrangianFrame(cols)


def frame_to_doc(f: LagrangianFrame) -> dict:
    return {
        "kind": "frame",
        "k": f.k,
        "columns": [[float(x) for x in f.columns[:, j]] for j in range(f.k)],
    }


def _check_hull_cost(n, d, kind):
    """Fail closed before an exact hull of n points in dimension d that
    would cost more than MAX_HULL_COST.  Hulls run in at most 4 dimensions
    (a body's points are hulled in their span), so d is capped at 4."""
    d = min(d, 4)
    cost = math.comb(n, d) * n if d >= 1 else 0
    if cost > MAX_HULL_COST:
        raise DocumentError(
            f"{kind} document: hull of {n} points in dimension {d} costs"
            f" C({n}, {d}) * {n} = {cost}, over the limit {MAX_HULL_COST}")


def polytope_from_doc(doc) -> MomentData:
    dim = int(_require(doc, "dimension", "polytope"))
    raw = _require(doc, "vertices", "polytope")
    _check_hull_cost(len(raw), dim, "polytope")
    vertices = [[_rat_in(x) for x in v] for v in raw]
    p = DelzantPolytope(dim, vertices)
    kappa = doc.get("kappa")
    return MomentData(p, kappa=_rat_in(kappa) if kappa is not None else None,
                      compressible=bool(doc.get("compressible", False)))


def polytope_to_doc(m: MomentData) -> dict:
    doc = {
        "kind": "polytope",
        "dimension": m.polytope.dimension,
        "vertices": [[_rat_out(x) for x in v] for v in m.polytope.vertices],
    }
    if m.kappa is not None:
        doc["kappa"] = _rat_out(m.kappa)
    if m.compressible:
        doc["compressible"] = True
    return doc


def body_from_doc(doc) -> ConvexBody:
    raw = _require(doc, "generators", "body")
    # a certificate or membership test hulls the generators and the origin
    _check_hull_cost(len(raw) + 1, len(raw[0]) if raw else 0, "body")
    return ConvexBody([[_rat_in(x) for x in g] for g in raw])


def body_to_doc(b: ConvexBody) -> dict:
    return {"kind": "body",
            "generators": [[_rat_out(x) for x in g] for g in b.generators]}


def pl_from_doc(doc) -> PLFunction:
    vertices = _require(doc, "vertices", "pl-function")
    simplices = _require(doc, "simplices", "pl-function")
    cost = len(simplices) * len(vertices)
    if cost > MAX_PL_COST:
        raise DocumentError(
            f"pl-function document: {len(simplices)} simplices * {len(vertices)} vertices"
            f" = {cost}, over the limit {MAX_PL_COST}")
    return PLFunction(
        [[_rat_in(x) for x in v] for v in vertices],
        [[int(i) for i in s] for s in simplices],
        [_rat_in(v) for v in _require(doc, "values", "pl-function")])


def pl_to_doc(f: PLFunction) -> dict:
    return {
        "kind": "pl-function",
        "vertices": [[_rat_out(x) for x in v] for v in f.vertices],
        "simplices": [list(s) for s in f.simplices],
        "values": [_rat_out(v) for v in f.values],
    }


_FROM = {
    "ring": ring_from_doc,
    "complex": complex_from_doc,
    "path": path_from_doc,
    "frame": frame_from_doc,
    "polytope": polytope_from_doc,
    "body": body_from_doc,
    "pl-function": pl_from_doc,
}

_TO = {
    "ring": ring_to_doc,
    "complex": complex_to_doc,
    "path": path_to_doc,
    "frame": frame_to_doc,
    "polytope": polytope_to_doc,
    "body": body_to_doc,
    "pl-function": pl_to_doc,
}


def load_document(path, kind):
    """Parse and validate a document of the declared kind.

    Accepts "builtin:<name>" paths for rings and polytopes.
    """
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    if isinstance(path, str) and path.startswith("builtin:"):
        return _load_builtin(path[len("builtin:"):], kind)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DocumentError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: not valid JSON at line {e.lineno}: {e.msg}")
    declared = doc.get("kind")
    if declared is not None and declared != kind:
        raise DocumentError(f"{path}: document kind {declared!r}, expected {kind!r}")
    try:
        return _FROM[kind](doc)
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise DocumentError(f"{path}: invalid {kind} document: {e}")


def _load_builtin(name, kind):
    if kind == "ring":
        from .quantum import builtin_algebra
        return builtin_algebra(name)
    if kind == "polytope":
        from .toric import builtin_moment_data
        return builtin_moment_data(name)
    raise DocumentError(f"no built-in documents of kind {kind!r}")


def dumps_document(obj, kind) -> str:
    doc = _TO[kind](obj)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_document(obj, kind, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(obj, kind))
