"""Per-layer tracing of rigidkit from outside the package.

``Tracer.install`` replaces each traced public function or method with a
wrapper, in every ``rigidkit`` module namespace that binds it: ``toric`` and
``qstate`` bind ``rational_geometry`` functions with ``from ... import``, so
patching only the defining module would miss their calls.

A wrapper counts the call and times it.  Self time (a call's duration minus
the time of the traced calls it makes) is added to the layer's ``busy_s``
and to the function's own timers.  Calls made per item in the millions
(Novikov scalar arithmetic, qprod, rational elimination) are timed but not
kept as spans; every other call keeps a span (id, name, start, end, parent,
item id) in memory, written out when the run ends.  Path ``value`` and
``derivative`` calls are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

LAYERS = ("novikov", "linalg", "complexes", "quantum", "spindex",
          "rational_geometry", "toric", "qstate", "documents", "cli")

_NOVIKOV_ARITH = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inverse", "__pow__")
_PATH_CLASSES = ("MatrixPath", "ProductPath", "RotatedPath", "DoubledPath", "_DoubledRotated")
_DOC_KINDS = ("ring", "complex", "path", "frame", "polytope", "body", "pl")

# (layer, "name" or "Class.method", record, extra timers/counters); record is
# True to time the call and keep its span, False to time it only, None to
# count it only
TARGETS = [
    ("novikov", "NovikovScalar.__init__", False, ("scalar_new",)),
    ("novikov", "NovikovScalar.zero", False, ("zero_calls",)),
    *[("novikov", f"NovikovScalar.{m}", False, ("arith_calls",)) for m in ("one", "monomial", "constant", "from_terms")],
    *[("novikov", f"NovikovScalar.{m}", False, ("arith_calls",)) for m in _NOVIKOV_ARITH],
    *[("novikov", f"LambdaElement.{m}", False, ("arith_calls",))
      for m in ("__add__", "__sub__", "__neg__", "__mul__", "scale")],
    ("novikov", "parse_scalar", False, ("parse_calls", "parse_busy_s")),
    ("linalg", "solve", True, ("solve_calls", "solve_busy_s", "max_n")),
    ("linalg", "nullspace", True, ("nullspace_calls", "nullspace_busy_s", "max_n")),
    ("linalg", "rank", True, ("rank_calls", "rank_busy_s", "max_n")),
    ("linalg", "det", True, ("max_n",)),
    ("linalg", "inverse", True, ("max_n",)),
    ("linalg", "mat_mul", True, ()),
    ("linalg", "mat_vec", True, ()),
    ("complexes", "spectral_basis", True,
     ("spectral_basis_calls", "spectral_basis_busy_s", "spectral_basis_max_dim")),
    ("complexes", "tensor", True, ("tensor_busy_s",)),
    *[("complexes", name, True, ()) for name in (
        "tensor_element", "verify_product_formula", "perturb_filter", "spectral_invariant",
        "spectral_invariant_of_cycle", "canonical_representative", "class_of_cycle",
        "normal_basis", "in_general_position", "is_generic", "validate", "homology_rank")],
    ("quantum", "qprod", False, ("qprod_calls",)),
    ("quantum", "kunneth", True, ("kunneth_busy_s",)),
    ("quantum", "QuantumAlgebra.check_axioms", True, ("check_axioms_busy_s",)),
    ("quantum", "is_semisimple", True, ("is_semisimple_busy_s",)),
    *[("quantum", name, True, ()) for name in (
        "QuantumAlgebra.top_slice_constants", "frobenius_gram", "frobenius", "divide",
        "is_idempotent", "tables_equal", "builtin_algebra")],
    ("spindex", "ind", True, ("index_calls",)),
    ("spindex", "cz_matr", True, ("index_calls",)),
    ("spindex", "ind_doubled", True, ("index_calls",)),
    ("spindex", "rs_index", True, ("rs_index_calls", "rs_index_busy_s")),
    ("spindex", "leray_verify", True, ("leray_busy_s",)),
    *[("spindex", name, True, ()) for name in ("maslov_loop", "cz_floer", "qm_defect", "crossing_form")],
    *[("spindex", f"{cls}.{m}", None, ("path_evals",))
      for cls in _PATH_CLASSES for m in ("value", "derivative")],
    ("rational_geometry", "convex_hull_facets", True, ("hull_calls", "hull_busy_s")),
    *[("rational_geometry", name, False, ("elim_calls", "elim_busy_s"))
      for name in ("mat_rank", "mat_det", "solve_linear", "nullspace_basis")],
    *[("rational_geometry", name, True, ()) for name in (
        "separating_functional", "point_in_hull", "extreme_points", "hull_edges",
        "triangulate", "centroid_and_volume")],
    ("toric", "stable_displaceability_certificate", True, ("certificate_calls",)),
    *[("toric", name, True, ()) for name in (
        "ball_subpolytope", "special_point", "normalize", "delzant_verify", "fiber_status",
        "builtin_moment_data", "ConvexBody.contains", "DelzantPolytope.contains",
        "DelzantPolytope.strictly_contains")],
    ("qstate", "zeta", True, ("zeta_calls",)),
    *[("qstate", name, True, ()) for name in (
        "model_heavy", "axiom_suite", "fan_triangulation", "barycentric_refine",
        "fourier_reduction_demo")],
    ("documents", "dumps_document", True, ("dump_bytes", "dump_busy_s")),
    ("documents", "save_document", True, ("dump_busy_s",)),
    ("documents", "load_document", True, ("load_busy_s",)),
    *[("documents", f"{kind}_to_doc", True, ("dump_busy_s",)) for kind in _DOC_KINDS],
    *[("documents", f"{kind}_from_doc", True, ("load_busy_s",)) for kind in _DOC_KINDS],
    ("cli", "main", True, ("main_calls",)),
]

# (metric, unit) reported by the traced run, in BENCHMARK.json order.  Counts,
# busy seconds and bytes are divided by the items the run completed, so that
# runs that finish different numbers of items compare; maxima, the retry
# ratio and the error counts are not.
PER_LAYER = [
    ("novikov.scalar_new", "count/item"), ("novikov.zero_calls", "count/item"),
    ("novikov.arith_calls", "count/item"), ("novikov.busy_s", "s/item"),
    ("novikov.parse_calls", "count/item"), ("novikov.parse_busy_s", "s/item"),
    ("linalg.solve_calls", "count/item"), ("linalg.solve_busy_s", "s/item"),
    ("linalg.nullspace_calls", "count/item"), ("linalg.nullspace_busy_s", "s/item"),
    ("linalg.rank_calls", "count/item"), ("linalg.rank_busy_s", "s/item"),
    ("linalg.max_n", "rows"),
    ("complexes.spectral_basis_calls", "count/item"),
    ("complexes.spectral_basis_busy_s", "s/item"),
    ("complexes.spectral_basis_max_dim", "dim"), ("complexes.tensor_busy_s", "s/item"),
    ("complexes.busy_s", "s/item"),
    ("spindex.index_calls", "count/item"), ("spindex.rs_index_calls", "count/item"),
    ("spindex.rs_per_index", "ratio"), ("spindex.rs_index_busy_s", "s/item"),
    ("spindex.path_evals", "count/item"), ("spindex.leray_busy_s", "s/item"),
    ("spindex.busy_s", "s/item"),
    ("quantum.qprod_calls", "count/item"), ("quantum.kunneth_busy_s", "s/item"),
    ("quantum.check_axioms_busy_s", "s/item"), ("quantum.is_semisimple_busy_s", "s/item"),
    ("quantum.busy_s", "s/item"),
    ("rational_geometry.hull_calls", "count/item"),
    ("rational_geometry.hull_busy_s", "s/item"),
    ("rational_geometry.elim_calls", "count/item"),
    ("rational_geometry.elim_busy_s", "s/item"),
    ("toric.certificate_calls", "count/item"), ("toric.busy_s", "s/item"),
    ("qstate.zeta_calls", "count/item"), ("qstate.busy_s", "s/item"),
    ("documents.dump_bytes", "bytes/item"), ("documents.dump_busy_s", "s/item"),
    ("documents.load_busy_s", "s/item"),
    ("cli.main_calls", "count/item"), ("cli.busy_s", "s/item"),
    *[(f"{layer}.errors", "count") for layer in LAYERS],
    ("trace.items_per_s", "items/s"),
]


class _Frame:
    __slots__ = ("layer", "child", "span_id")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    def __init__(self):
        self.stack = []
        self.values = Counter()      # counts and busy seconds, by metric name
        self.maxima = Counter()
        self.spans = []              # (span_id, name, start, end, parent_id, item_id)
        self.item_id = None
        self._next_id = 0

    # -- install --------------------------------------------------------
    def install(self, rk):
        """Wrap every target; ``rk`` holds the layer modules that define them."""
        modules = [m for n, m in sys.modules.items() if n == "rigidkit" or n.startswith("rigidkit.")]
        for layer, target, record, extra in TARGETS:
            owner_name, _, attr = target.rpartition(".")
            module = getattr(rk, layer)
            if not owner_name:
                original = getattr(module, attr)
                wrapper = self._wrap(original, layer, target, record, extra)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, layer, target, record, extra)))
            else:
                setattr(owner, attr, self._wrap(raw, layer, target, record, extra))

    def _wrap(self, fn, layer, name, record, extra):
        values = self.values
        prefix = layer + "."
        if record is None:
            key = prefix + extra[0]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                values[key] += 1
                return fn(*args, **kwargs)
            return counted

        counts = [prefix + e for e in extra if e.endswith("_calls") or e == "scalar_new"]
        busy = [prefix + "busy_s"] + [prefix + e for e in extra if e.endswith("_busy_s")]
        size = None
        if "max_n" in extra:
            size = (prefix + "max_n", lambda a: max(len(a[0]), len(a[0][0]) if a[0] else 0))
        elif "spectral_basis_max_dim" in extra:
            size = (prefix + "spectral_basis_max_dim", lambda a: a[0].dim)
        dump_bytes = prefix + "dump_bytes" if "dump_bytes" in extra else None
        stack, spans, maxima = self.stack, self.spans, self.maxima
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key in counts:
                values[key] += 1
            if size is not None:
                maxima[size[0]] = max(maxima[size[0]], size[1](args))
            parent = stack[-1] if stack else None
            span_id = None
            if record:
                span_id = self._next_id
                self._next_id += 1
            frame = _Frame(layer, span_id)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent.layer != layer:
                    values[prefix + "errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent.child += duration
                own = duration - frame.child
                for key in busy:
                    values[key] += own
                if record:
                    spans.append((span_id, name, t0, t1,
                                  parent.span_id if parent is not None else None, self.item_id))
            if dump_bytes is not None:
                values[dump_bytes] += len(result.encode())
            return result
        return traced

    # -- items ------------------------------------------------------------
    def begin_item(self, item_id):
        self.item_id = item_id
        span_id = self._next_id
        self._next_id += 1
        self.stack.append(_Frame("item", span_id))
        return span_id, time.perf_counter()

    def end_item(self, kind, span_id, t0):
        self.stack.pop()
        self.spans.append((span_id, f"item:{kind}", t0, time.perf_counter(), None, self.item_id))

    # -- results ----------------------------------------------------------
    def metrics(self, items, items_per_s):
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.items_per_s":
                value = items_per_s
            elif name == "spindex.rs_per_index":
                calls = self.values["spindex.index_calls"]
                value = self.values["spindex.rs_index_calls"] / calls if calls else 0.0
            elif name in self.maxima:
                value = self.maxima[name]
            elif unit.endswith("/item"):
                value = self.values[name] / items
            else:
                value = self.values[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "item"),
                                             span))) + "\n")
