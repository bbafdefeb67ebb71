"""Command-line front end: document analysis and verification suites.

Exit codes: 0 = ok, 1 = a checked identity failed (violation), 2 = usage
or input error.  With --json the full report tree is printed; otherwise a
readable summary.  --seed (or RIGIDKIT_SEED) fixes every randomized suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from .novikov import NEG_INF


def _digest(path):
    if isinstance(path, str) and path.startswith("builtin:"):
        return path
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError:
        return "unreadable"


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    if x == NEG_INF:
        return "-inf"
    if isinstance(x, float):
        return x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    if hasattr(x, "to_text"):
        return x.to_text()
    return str(x)


class Report:
    def __init__(self, subcommand, seed=None):
        self.subcommand = subcommand
        self.seed = seed
        self.inputs = {}
        self.results = {}
        self.status = "ok"
        self._t0 = time.perf_counter()

    def add_input(self, path):
        if path:
            self.inputs[str(path)] = _digest(path)

    def violation(self):
        if self.status == "ok":
            self.status = "violation"

    def error(self, message):
        self.status = "error"
        self.results["error"] = str(message)

    def tree(self):
        return {
            "subcommand": self.subcommand,
            "inputs": dict(sorted(self.inputs.items())),
            "seed": self.seed,
            "results": _jsonable(self.results),
            "status": self.status,
            "timing_ms": round(1000 * (time.perf_counter() - self._t0), 3),
        }

    def emit(self, as_json):
        tree = self.tree()
        if as_json:
            print(json.dumps(tree, sort_keys=True, indent=2))
        else:
            print(f"[{tree['status']}] {self.subcommand}")
            for k, v in tree["results"].items():
                print(f"  {k}: {json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}")
        return {"ok": 0, "violation": 1, "error": 2}[tree["status"]]


# ---------------------------------------------------------------------------
# element expression parsing

def _split_terms(text):
    parts, depth, cur, sign = [], 0, "", 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip():
            parts.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif depth == 0 and ch in "+-" and not cur.strip():
            sign *= 1 if ch == "+" else -1
        else:
            cur += ch
    if cur.strip():
        parts.append((sign, cur.strip()))
    return parts


def parse_ring_element(algebra, text):
    """Sum of terms  [scalar *] [q^(k) *] LABEL  with novikov scalar text."""
    from .novikov import LambdaElement, NovikovScalar, parse_scalar
    from .quantum import QHElement

    coeffs = {}
    for sign, term in _split_terms(text):
        qpow = 0
        scalar = NovikovScalar.one(algebra.field)
        label = None
        for factor in _split_factors(term):
            factor = factor.strip()
            if factor in algebra.basis.labels:
                label = factor
            elif factor.startswith("q^"):
                qpow += int(factor[2:].strip("()"))
            else:
                scalar = scalar * parse_scalar(algebra.field, factor)
        if label is None:
            raise ValueError(f"term {term!r} names no basis class")
        if sign < 0:
            scalar = -scalar
        i = algebra.basis.index_of(label)
        lam = LambdaElement.q_power(algebra.field, qpow, scalar)
        coeffs[i] = coeffs[i] + lam if i in coeffs else lam
    return QHElement(algebra, coeffs)


def _split_factors(term):
    parts, depth, cur = [], 0, ""
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch == "*":
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return [p for p in (q.strip() for q in parts) if p]


def parse_class_expr(cx_field, p_count, text):
    """Coefficients over the homology basis h1..hp from  [scalar *] hN terms."""
    from .novikov import NovikovScalar, parse_scalar

    coeffs = [NovikovScalar.zero(cx_field) for _ in range(p_count)]
    for sign, term in _split_terms(text):
        scalar = NovikovScalar.one(cx_field)
        index = None
        for factor in _split_factors(term):
            if factor.startswith("h") and factor[1:].isdigit():
                index = int(factor[1:]) - 1
            else:
                scalar = scalar * parse_scalar(cx_field, factor)
        if index is None or not 0 <= index < p_count:
            raise ValueError(f"term {term!r} does not name a class h1..h{p_count}")
        if sign < 0:
            scalar = -scalar
        coeffs[index] = coeffs[index] + scalar
    return coeffs


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ring(args, report):
    from . import linalg
    from .documents import load_document
    from .quantum import (
        divide,
        frobenius_gram,
        is_idempotent,
        is_semisimple,
        kunneth,
        qprod,
    )

    alg = load_document(args.file, "ring")
    report.add_input(args.file)
    if args.check_axioms:
        bad = alg.check_axioms()
        gram = frobenius_gram(alg)
        rank = linalg.rank(gram)
        report.results["axioms"] = bad or "all hold"
        report.results["pairing_rank"] = f"{rank}/{alg.rank}"
        if bad or rank < alg.rank:
            report.violation()
    if args.idempotent:
        x = parse_ring_element(alg, args.idempotent)
        report.results["element"] = x.to_text()
        report.results["idempotent"] = is_idempotent(alg, x)
    if args.semisimple:
        res = is_semisimple(alg)
        report.results["semisimple"] = res.verdict
        report.results["reason"] = res.reason
    if args.divide:
        c = parse_ring_element(alg, args.divide[0])
        a = parse_ring_element(alg, args.divide[1])
        x = divide(alg, c, a)
        if x is None:
            report.results["divide"] = "no solution"
        else:
            report.results["divide"] = x.to_text()
            report.results["verified"] = qprod(alg, c, x) == a
            if not report.results["verified"]:
                report.violation()
    if args.kunneth:
        other = load_document(args.kunneth, "ring")
        report.add_input(args.kunneth)
        prod = kunneth(alg, other)
        report.results["kunneth_rank"] = prod.rank
        report.results["kunneth_gamma"] = prod.gamma.generator
        report.results["kunneth_axioms"] = prod.check_axioms(deep=prod.rank <= 6) or "all hold"


def _cmd_complex(args, report):
    from .complexes import (
        spectral_basis,
        spectral_invariant,
        tensor,
        validate,
        verify_product_formula,
    )
    from .complexes import HomologyClass
    from .documents import load_document

    cx = load_document(args.file, "complex")
    report.add_input(args.file)
    if args.validate:
        bad = validate(cx)
        report.results["validate"] = bad or "ok"
        if bad:
            report.violation()
    if args.spectral_basis:
        sb = spectral_basis(cx)
        report.results["counts"] = {"n": cx.dim, "p": sb.p, "q": sb.q}
        report.results["homology_rank"] = sb.p
    if args.class_expr:
        sb = spectral_basis(cx)
        coeffs = parse_class_expr(cx.field, sb.p, args.class_expr)
        a = HomologyClass(tuple(coeffs))
        c = spectral_invariant(cx, sb, a)
        report.results["spectral_invariant"] = c
    if args.tensor:
        other = load_document(args.tensor, "complex")
        report.add_input(args.tensor)
        prod = tensor(cx, other)
        report.results["tensor_dim"] = prod.dim
        report.results["tensor_valid"] = validate(prod) or "ok"
        if args.verify_product:
            import random

            from .corpus import random_homology_class
            rng = random.Random(args.seed or 0)
            sb1 = spectral_basis(cx)
            sb2 = spectral_basis(other)
            rows = []
            for _ in range(args.trials or 5):
                a1, _ = random_homology_class(rng, cx, sb1)
                a2, _ = random_homology_class(rng, other, sb2)
                if a1 is None or a2 is None:
                    report.results["verify_product"] = "a factor is acyclic"
                    break
                rep = verify_product_formula(cx, other, a1, a2, sb1, sb2)
                rows.append({"lhs": rep["lhs"], "rhs": rep["rhs"], "equal": rep["equal"]})
                if not rep["equal"]:
                    report.violation()
            if rows:
                report.results["verify_product"] = rows


def _cmd_index(args, report):
    import numpy as np

    from .documents import load_document
    from .spindex import (
        IndexError_,
        cz_floer,
        cz_matr,
        ind,
        leray_verify,
        maslov_loop,
        qm_defect,
    )

    path = load_document(args.file, "path")
    report.add_input(args.file)
    if args.rs:
        frame = load_document(args.rs, "frame")
        report.add_input(args.rs)
        report.results["ind"] = ind(path, frame)
    if args.cz:
        report.results["cz_matr"] = cz_matr(path)
        if args.n:
            report.results["cz_floer"] = cz_floer(path, args.n)
    if args.maslov:
        report.results["maslov"] = maslov_loop(path)
    if args.leray:
        other = load_document(args.leray, "path")
        report.add_input(args.leray)
        rep = leray_verify(path, other)
        report.results["leray"] = rep
        if rep["residual"] >= 1e-6:
            report.violation()
    if args.qm_defect:
        other = load_document(args.qm_defect, "path")
        report.add_input(args.qm_defect)
        report.results["qm_defect"] = qm_defect(path, other)
    if args.sample_defect:
        from .corpus import random_matrix_path
        rng = np.random.default_rng(args.seed or 0)
        worst = 0.0
        done = 0
        for _ in range(args.trials or 50):
            a = random_matrix_path(rng, path.k)
            b = random_matrix_path(rng, path.k)
            try:
                worst = max(worst, qm_defect(a, b))
                done += 1
            except IndexError_:
                continue
        report.results["sample_defect"] = {"trials": done, "max_defect": worst}


def _cmd_toric(args, report):
    from .documents import load_document
    from .toric import (
        ball_subpolytope,
        delzant_verify,
        fiber_status,
        normalize,
        special_point,
        stable_displaceability_certificate,
    )

    if args.ball:
        n, r = int(args.ball[0]), Fraction(args.ball[1])
        body = ball_subpolytope(n, r)
        report.results["ball"] = {"n": n, "r": r,
                                  "generators": [list(g) for g in body.generators],
                                  "contains_origin": body.contains([0] * n)}
        if not args.file:
            return
    if not args.file:
        raise DocUsage("toric requires a polytope file unless only --ball is used")
    moment = load_document(args.file, "polytope")
    report.add_input(args.file)
    if args.normalize:
        normalized, shift = normalize(moment.polytope)
        report.results["shift"] = list(shift)
        report.results["normalized_vertices"] = [list(v) for v in normalized.vertices]
    if args.delzant:
        bad = delzant_verify(moment.polytope)
        report.results["delzant"] = bad or "ok"
        if bad:
            report.violation()
    if args.pspec:
        report.results["p_spec"] = list(special_point(moment))
    if args.displaceable:
        body = load_document(args.displaceable, "body")
        report.add_input(args.displaceable)
        cert = stable_displaceability_certificate(moment, body)
        report.results["certificate"] = list(cert) if cert else "none (origin inside)"
    if args.fiber:
        point = [Fraction(x) for x in args.fiber.split(",")]
        report.results["fiber"] = fiber_status(moment, point)


def _cmd_qstate(args, report):
    from .documents import load_document
    from .qstate import (
        ModelState,
        axiom_suite,
        fourier_reduction_demo,
        gaussian_sampler,
        model_heavy,
        zeta,
    )

    moment = load_document(args.file, "polytope")
    report.add_input(args.file)
    state = ModelState(moment)
    report.results["p_spec"] = list(state.p_spec)
    if args.zeta:
        f = load_document(args.zeta, "pl-function")
        report.add_input(args.zeta)
        report.results["zeta"] = zeta(state, f)
    if args.axioms:
        rep = axiom_suite(state, trials=args.trials or 50, seed=args.seed or 0)
        report.results["axioms"] = rep
        if rep["status"] != "ok":
            report.violation()
    if args.heavy:
        body = load_document(args.heavy, "body")
        report.add_input(args.heavy)
        report.results["heavy"] = model_heavy(state, body)
    if args.fourier:
        sampler = gaussian_sampler(state.p_spec)
        rep = fourier_reduction_demo(state, sampler, radius=args.R, eps=args.eps)
        report.results["fourier"] = rep
        if rep["error"] > 1e-3:
            report.violation()


def _cmd_verify(args, report):
    from . import acceptance

    suites = acceptance.SUITES
    if args.suite == "all":
        names = list(suites)
    elif args.suite in suites:
        names = [args.suite]
    else:
        raise DocUsage(f"unknown suite {args.suite!r}; known: {', '.join(suites)}, all")
    for name in names:
        rep = suites[name](seed=args.seed or 0, trials=args.trials)
        report.results[name] = rep
        if not rep.get("passed", False):
            report.violation()


class DocUsage(Exception):
    pass


def build_parser():
    # the global flags are also registered on every subparser (with
    # SUPPRESS defaults) so `rigidkit complex f --seed 7` works as well as
    # `rigidkit --seed 7 complex f`
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit the full JSON report")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized suites (fallback: RIGIDKIT_SEED)")

    p = argparse.ArgumentParser(
        prog="rigidkit",
        description="Exact Novikov arithmetic, spectral invariants, symplectic "
                    "path indices and moment polytope analysis.")
    p.add_argument("--json", action="store_true", help="emit the full JSON report")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized suites (fallback: RIGIDKIT_SEED)")
    sub = p.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    ring = sub.add_parser("ring", parents=[shared], help="structure-constant algebra analysis")
    ring.add_argument("file")
    ring.add_argument("--check-axioms", action="store_true")
    ring.add_argument("--idempotent", metavar="EXPR")
    ring.add_argument("--semisimple", action="store_true")
    ring.add_argument("--divide", nargs=2, metavar=("C", "A"))
    ring.add_argument("--kunneth", metavar="FILE2")

    cx = sub.add_parser("complex", parents=[shared], help="decorated complex analysis")
    cx.add_argument("file")
    cx.add_argument("--validate", action="store_true")
    cx.add_argument("--spectral-basis", action="store_true")
    cx.add_argument("--c", dest="class_expr", metavar="EXPR")
    cx.add_argument("--tensor", metavar="FILE2")
    cx.add_argument("--verify-product", action="store_true")
    cx.add_argument("--trials", type=int, default=None)

    ix = sub.add_parser("index", parents=[shared], help="symplectic path indices")
    ix.add_argument("file")
    ix.add_argument("--rs", metavar="FRAME")
    ix.add_argument("--cz", action="store_true")
    ix.add_argument("--n", type=int, default=None)
    ix.add_argument("--maslov", action="store_true")
    ix.add_argument("--leray", metavar="FILE2")
    ix.add_argument("--qm-defect", metavar="FILE2")
    ix.add_argument("--sample-defect", action="store_true")
    ix.add_argument("--trials", type=int, default=None)

    tc = sub.add_parser("toric", parents=[shared], help="moment polytope analysis")
    tc.add_argument("file", nargs="?")
    tc.add_argument("--normalize", action="store_true")
    tc.add_argument("--delzant", action="store_true")
    tc.add_argument("--pspec", action="store_true")
    tc.add_argument("--displaceable", metavar="BODY")
    tc.add_argument("--fiber", metavar="POINT")
    tc.add_argument("--ball", nargs=2, metavar=("N", "R"))

    qs = sub.add_parser("qstate", parents=[shared], help="model quasi-state on moment data")
    qs.add_argument("file")
    qs.add_argument("--zeta", metavar="PLFILE")
    qs.add_argument("--axioms", action="store_true")
    qs.add_argument("--heavy", metavar="BODY")
    qs.add_argument("--fourier", action="store_true")
    qs.add_argument("--R", type=float, default=10.0)
    qs.add_argument("--eps", type=float, default=0.05)
    qs.add_argument("--trials", type=int, default=None)

    vf = sub.add_parser("verify", parents=[shared], help="named acceptance suites")
    vf.add_argument("--suite", required=True)
    vf.add_argument("--trials", type=int, default=None)
    return p


_HANDLERS = {
    "ring": _cmd_ring,
    "complex": _cmd_complex,
    "index": _cmd_index,
    "toric": _cmd_toric,
    "qstate": _cmd_qstate,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for usage errors
        return int(e.code or 0)
    if args.command is None:
        parser.print_help()
        return 2
    if args.seed is None:
        env = os.environ.get("RIGIDKIT_SEED")
        if env is not None:
            try:
                args.seed = int(env)
            except ValueError:
                print("RIGIDKIT_SEED must be an integer", file=sys.stderr)
                return 2
    report = Report(args.command, seed=args.seed)
    try:
        _HANDLERS[args.command](args, report)
    except DocUsage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        from .documents import DocumentError
        if isinstance(e, DocumentError):
            report.error(str(e))
            report.emit(args.json)
            return 2
        report.error(f"{type(e).__name__}: {e}")
        report.emit(args.json)
        return 2
    return report.emit(args.json)


if __name__ == "__main__":
    sys.exit(main())
