"""The benchmark's three workloads: seeded inputs and the check on every item.

Each builder takes the freshly imported rigidkit modules and the seed, makes
every input before timing starts, and returns a ``Workload``.  An item is a
closure that calls rigidkit's public functions on those inputs and raises
``CheckFailed`` when an output breaks the identity the benchmark checks.

Every workload repeats a fixed, seed-independent *schedule* of strata (pair
shapes, item kinds, ring sizes); the seed only picks the content inside each
stratum.  Item cost is set mostly by the stratum, so this keeps the
throughput and latency figures steady from seed to seed while every input is
still seeded.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An item's output broke the identity the benchmark checks."""


@dataclass
class Item:
    kind: str
    run: Callable[[], None]


@dataclass
class Workload:
    items: list
    # untimed check run after the timed section; its findings are reported
    probe: Callable[[], dict] | None = None


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# complex-product: exact product formula on generic pairs, plus single
# complexes with the constant-shift and monotone-bump laws

PAIR_SHAPES = [(n1, n2) for n1 in range(2, 9) for n2 in range(2, 9)]
random.Random("complex-product schedule").shuffle(PAIR_SHAPES)
SINGLE_DIMS = (3, 4, 5, 6)
SINGLE_EVERY = 4          # one single complex after every fourth pair
CP_CYCLES = 4             # distinct copies of the 49-shape schedule


def _pair_with_shape(rk, seed, tag, shape):
    """A seeded generic pair from corpus.random_general_position_pair whose
    factor dimensions are ``shape``, with a nonzero class on each factor.

    The corpus draws d1, d2, n1, n2 first; a copy of the generator peeks at
    them so only sub-seeds of the wanted shape are generated.  The shape is
    checked again afterwards, so a change of draw order only costs time.
    """
    for sub in range(100000):
        rng = random.Random(f"{seed}/pair/{tag}/{sub}")
        peek = random.Random()
        peek.setstate(rng.getstate())
        peek.randrange(1, 13), peek.randrange(1, 13)
        if (peek.randrange(2, 9), peek.randrange(2, 9)) != shape:
            continue
        v1, v2 = rk.corpus.random_general_position_pair(rng, rk.novikov.QMODEL, max_dim=8)
        if (v1.dim, v2.dim) != shape:
            continue
        a1, _ = rk.corpus.random_homology_class(rng, v1)
        a2, _ = rk.corpus.random_homology_class(rng, v2)
        if a1 is not None and a2 is not None:
            return v1, v2, a1, a2
    raise RuntimeError(f"no pair of shape {shape}")


def _pair_item(rk, v1, v2, a1, a2):
    def run():
        rep = rk.complexes.verify_product_formula(v1, v2, a1, a2)
        _check(rep["rhs"] == rep["c1"] + rep["c2"] and rep["lhs"] == rep["c1"] + rep["c2"],
               f"c(a(x)b) = {rep['lhs']} but c(a) + c(b) = {rep['c1']} + {rep['c2']}")
    return Item("pair", run)


def _breaks_strict_decrease(v, delta):
    """True when the filter F + delta no longer strictly decreases under d."""
    new = [f + delta[i] for i, f in enumerate(v.filters)]
    return any(sc.valuation() + new[i] >= new[j]
               for j, col in enumerate(v.diff) for i, sc in col.items())


def _single_item(rk, v, a, theta, delta):
    cx = rk.complexes

    def run():
        sb = cx.spectral_basis(v)
        c0 = cx.spectral_invariant(v, sb, a)
        cyc = cx.canonical_representative(v, sb, a)
        shifted = cx.spectral_invariant_of_cycle(cx.perturb_filter(v, theta), cyc)
        _check(shifted == c0 + theta, f"constant shift by {theta}: {shifted} != {c0} + {theta}")
        try:
            v_up = cx.perturb_filter(v, delta)
        except cx.ComplexError:
            # a documented rejection, correct only if the bump really breaks
            # the strict decrease of the filter
            _check(_breaks_strict_decrease(v, delta), "perturb_filter rejected a valid bump")
            return
        _check(not _breaks_strict_decrease(v, delta), "perturb_filter accepted an invalid bump")
        c_up = cx.spectral_invariant_of_cycle(v_up, cyc)
        _check(c_up >= c0, f"monotone bump lowered c: {c_up} < {c0}")
        _check(abs(c_up - c0) <= max(delta.values()), f"Lipschitz bound broken: |{c_up} - {c0}|")
    return Item("single", run)


def _single(rk, seed, tag, dim):
    for sub in range(100000):
        rng = random.Random(f"{seed}/single/{tag}/{sub}")
        v = rk.corpus.random_decorated_complex(rng, rk.novikov.QMODEL, dim=dim)
        a, _ = rk.corpus.random_homology_class(rng, v)
        if a is None:
            continue
        theta = Fraction(rng.randrange(1, 12), rng.randrange(1, 5))
        delta = {i: Fraction(rng.randrange(0, 3), 10) for i in range(v.dim)}
        return v, a, theta, delta
    raise RuntimeError(f"no non-acyclic complex of dimension {dim}")


def complex_product(rk, seed):
    items = []
    for cycle in range(CP_CYCLES):
        for k, shape in enumerate(PAIR_SHAPES):
            items.append(_pair_item(rk, *_pair_with_shape(rk, seed, f"{cycle}/{k}", shape)))
            if k % SINGLE_EVERY == SINGLE_EVERY - 1:
                dim = SINGLE_DIMS[(k // SINGLE_EVERY) % len(SINGLE_DIMS)]
                items.append(_single_item(rk, *_single(rk, seed, f"{cycle}/{k}", dim)))
    return Workload(items)


# ---------------------------------------------------------------------------
# index: the floating-point half, item kinds mixed as in suite_index

# leray_verify runs at k = 1 only: at k = 2 its identity fails on some seeded
# transversal pairs (LERAY_DEFECT_PAIRS), which the probe reproduces instead.
INDEX_KINDS = ("cz", "naturality", "leray-1", "qm-1", "qm-2", "maslov")
INDEX_CYCLES = 35
# numpy seeds of k = 2 pairs (two corpus.random_matrix_path draws each) on
# which leray_verify returned residual 1.0 at the commit that introduced this
# benchmark: 2 of 900 such pairs drawn with seeds 0-29.
LERAY_DEFECT_PAIRS = ((17, 23, 3), (12, 24, 3))


def _transversal(m):
    """Independent form of leray_verify's precondition A L & L = 0."""
    n = m.shape[0] // 2
    s = np.linalg.svd(m[:n, n:], compute_uv=False)
    return s[-1] > 1e-7 * max(1.0, s[0])


def _index_item(rk, kind, rng, loop_count):
    sp, corpus = rk.spindex, rk.corpus
    if kind == "cz":
        p = corpus.random_matrix_path(rng, 1)

        def run():
            lhs, rhs = sp.cz_matr(p), sp.ind_doubled(p)
            _check(lhs == rhs, f"cz_matr {lhs} != ind_doubled {rhs}")
    elif kind == "naturality":
        p = corpus.random_matrix_path(rng, 1)
        b = corpus.random_symplectic(rng, 1)
        v = sp.LagrangianFrame.coordinate_plane(1, "q")
        bv = sp.LagrangianFrame(b @ v.columns)

        def run():
            lhs, rhs = sp.ind(p.conjugate(b), bv), sp.ind(p, v)
            _check(lhs == rhs, f"Ind(BpB^-1, BV) {lhs} != Ind(p, V) {rhs}")
    elif kind.startswith("leray"):
        k = int(kind[-1])
        a, b = corpus.random_matrix_path(rng, k), corpus.random_matrix_path(rng, k)
        ends = (a.end(), b.end(), a.end() @ b.end())

        def run():
            try:
                rep = sp.leray_verify(a, b)
            except sp.IndexError_:
                _check(not all(_transversal(m) for m in ends),
                       "leray_verify rejected transversal endpoints")
                return
            residual = abs(rep["lhs"] - (rep["ind_a"] + rep["ind_b"] + rep["signature_term"]))
            _check(residual < 1e-6, f"Leray residual {residual:.2e}")
    elif kind.startswith("qm"):
        k = int(kind[-1])
        a, b = corpus.random_matrix_path(rng, k), corpus.random_matrix_path(rng, k)
        bound = rk.acceptance.C_EMP + 1

        def run():
            d = sp.qm_defect(a, b)
            _check(math.isfinite(d) and d <= bound, f"quasi-morphism defect {d} > {bound}")
    else:
        loop = sp.MatrixPath(1, [(sp.rotation_generator(1) * 2 * np.pi * loop_count, 1.0)])

        def run():
            m = sp.maslov_loop(loop)
            _check(m == 2 * loop_count, f"Maslov index {m} of the {loop_count}-fold rotation")
    return Item(kind, run)


def index(rk, seed):
    items = []
    for cycle in range(INDEX_CYCLES):
        for j, kind in enumerate(INDEX_KINDS):
            rng = np.random.default_rng([seed, cycle, j])
            items.append(_index_item(rk, kind, rng, loop_count=1 + cycle % 5))
    return Workload(items, probe=lambda: _leray_probe(rk))


def _leray_probe(rk):
    """The Leray identity on the known failing k = 2 pairs, run untimed; the
    pairs whose residual is not below 1e-6 are counted."""
    wrong = []
    for key in LERAY_DEFECT_PAIRS:
        rng = np.random.default_rng(list(key))
        a, b = rk.corpus.random_matrix_path(rng, 2), rk.corpus.random_matrix_path(rng, 2)
        rep = rk.spindex.leray_verify(a, b)
        if not rep["residual"] < 1e-6:
            wrong.append(f"seed {list(key)}: lhs {rep['lhs']}, rhs {rep['rhs']}")
    return {"known_defect": "leray_verify's identity fails on some transversal k = 2 pairs",
            "pairs": len(LERAY_DEFECT_PAIRS), "wrong_answers": len(wrong), "examples": wrong}


# ---------------------------------------------------------------------------
# rings-hulls: Novikov multiplication and parsing, rational geometry,
# document writes and reads, the CLI

# Same-field built-in pairs with product rank <= 16 in cost classes, and how
# many of each class a round holds.  Three items of the heavy class put the
# 90th percentile inside that class rather than in a gap between classes.
# The rank-15/16 rational products (1.3-2.1 s each on a 2-vCPU VM) are left
# out: one per round would double the round's time and dominate its spread.
RING_MIX = (
    (3, (("cpn2-q", "cpn3-q"), ("cpn2-q", "quadric"), ("cpn3-f2", "cpn3-f2"),
         ("cpn2-f2", "cpn4-f2"))),
    (1, (("cpn1-q", "cpn3-q"), ("cpn1-q", "quadric"), ("s2", "quadric"), ("cpn3-q", "s2"),
         ("cpn2-q", "cpn2-q"), ("cpn1-q", "cpn4-q"), ("cpn4-q", "s2"))),
    (1, (("cpn1-f2", "cpn3-f2"), ("cpn1-f2", "cpn4-f2"), ("cpn2-f2", "cpn2-f2"),
         ("cpn3-f2", "t2"), ("cpn4-f2", "t2"), ("cpn2-f2", "cpn3-f2"))),
    (1, (("cpn1-q", "cpn1-q"), ("cpn1-q", "s2"), ("s2", "s2"), ("cpn1-q", "cpn2-q"),
         ("cpn2-q", "s2"))),
    (1, (("cpn1-f2", "cpn1-f2"), ("cpn1-f2", "cpn2-f2"), ("cpn1-f2", "t2"), ("cpn2-f2", "t2"),
         ("t2", "t2"))),
)
# is_semisimple verdicts of the GF(2) products, as recorded at the commit
# that introduced this benchmark; the rational products must be semisimple.
F2_VERDICTS = {"t2": "not_semisimple", "cpn": "inconclusive"}

CLI_COMMANDS = (
    ("ring", "{d}/quadric.ring.json", "--check-axioms", "--semisimple"),
    ("ring", "{d}/cpn2_f2.ring.json", "--check-axioms", "--semisimple"),
    ("complex", "{d}/a.cplx.json", "--validate", "--spectral-basis"),
    ("complex", "{d}/a.cplx.json", "--tensor", "{d}/b.cplx.json"),
    ("toric", "{d}/cpn2.polytope.json", "--pspec", "--delzant",
     "--displaceable", "{d}/ball_half.body.json"),
    ("toric", "{d}/blowup.polytope.json", "--pspec", "--normalize"),
    ("qstate", "{d}/cpn2.polytope.json", "--zeta", "{d}/vee.pl.json",
     "--heavy", "{d}/ball_half.body.json"),
)
RH_CYCLES = 8
BUNDLES = 4               # certificate and qstate items per round
DEFECT_EVERY = 5          # every fifth certificate body is also probed with a repeated generator


def _ring_item(rk, a_name, b_name):
    q, linalg, docs = rk.quantum, rk.linalg, rk.documents
    a, b = q.builtin_algebra(a_name), q.builtin_algebra(b_name)
    if a.field == rk.novikov.QMODEL:
        expect = "semisimple"
    else:
        expect = F2_VERDICTS["t2" if "t2" in (a_name, b_name) else "cpn"]

    def run():
        prod = q.kunneth(a, b)
        _check(prod.rank == a.rank * b.rank, f"Kunneth rank {prod.rank}")
        bad = prod.check_axioms(deep=True)
        _check(not bad, f"axioms fail: {bad[:2]}")
        gram = linalg.rank(q.frobenius_gram(prod))
        _check(gram == prod.rank, f"pairing rank {gram}/{prod.rank}")
        verdict = q.is_semisimple(prod).verdict
        _check(verdict == expect, f"{a_name} x {b_name}: verdict {verdict}, expected {expect}")
        text = docs.dumps_document(prod, "ring")
        again = docs.dumps_document(docs.ring_from_doc(json.loads(text)), "ring")
        _check(again == text, "ring document round trip changed the bytes")
    return Item("ring", run)


def _certificate_item(rk, radii):
    """One certificate per projective space cpn1..cpn4, for ball_subpolytope(n, r)."""
    toric = rk.toric
    cases = [(toric.builtin_moment_data(f"cpn{n}"), toric.ball_subpolytope(n, r),
              r < Fraction(n, n + 1), f"cpn{n}, r={r}") for n, r in radii]

    def run():
        for moment, body, expect, name in cases:
            cert = toric.stable_displaceability_certificate(moment, body)
            _check((cert is not None) == expect, f"{name}: certificate {cert}, expected one: {expect}")
            if cert is not None:
                _check(all(sum(c * x for c, x in zip(cert, g)) > 0 for g in body.generators),
                       f"{name}: certificate {cert} not positive on every generator")
    return Item("certificate", run)


def _qstate_item(rk, states, meshes, rng):
    """For each cpn1..cpn4: zeta on a seeded PL function over the barycentric
    refinement of the moment simplex, whose central vertex is the special
    point, and model_heavy on a seeded ball, which contains the special point
    (the origin) exactly when r >= n/(n+1)."""
    qs = rk.qstate
    cases = []
    for n, state in states.items():
        verts, simplices = meshes[n]
        values = [Fraction(rng.randrange(-42, 43), 7) for _ in verts]
        # the refinement is conforming by construction; the scan would dominate set-up
        f = qs.PLFunction(verts, simplices, values, check=False)
        r = Fraction(rng.randrange(1, 121), 120)
        cases.append((state, f, values[verts.index(tuple(state.p_spec))],
                      rk.toric.ball_subpolytope(n, r), r >= Fraction(n, n + 1), f"cpn{n}, r={r}"))

    def run():
        for state, f, value, body, heavy, name in cases:
            z = qs.zeta(state, f)
            _check(z == value, f"{name}: zeta {z} != value {value} at the special point")
            rep = qs.model_heavy(state, body)
            _check(rep["heavy"] == heavy and rep["containing_components"] == ([0] if heavy else []),
                   f"{name}: heavy {rep['heavy']}, expected {heavy}")
    return Item("qstate", run)


def _run_cli(rk, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rk.cli.main(list(argv) + ["--json"])
    payload = json.loads(out.getvalue())
    payload.pop("timing_ms", None)
    return code, json.dumps(payload, sort_keys=True)


def _cli_item(rk, argv):
    code, reference = _run_cli(rk, argv)
    if code != 0:
        raise RuntimeError(f"warm-up of {argv} exited {code}")

    def run():
        code, payload = _run_cli(rk, argv)
        _check(code == 0, f"{argv[:2]} exited {code}")
        _check(payload == reference, f"{argv[:2]} payload changed between repeats")
    return Item("cli", run)


def _defect_probe(rk, bodies, total):
    """ROADMAP 5a: a body with its first generator repeated must get the
    same answer as the body itself.  Run untimed; the mismatches are counted."""
    wrong = []
    for n, r in bodies:
        body = rk.toric.ball_subpolytope(n, r)
        twin = rk.toric.ConvexBody(list(body.generators) + [body.generators[0]])
        cert = rk.toric.stable_displaceability_certificate(
            rk.toric.builtin_moment_data(f"cpn{n}"), twin)
        if (cert is not None) != (r < Fraction(n, n + 1)):
            wrong.append(f"cpn{n} r={r}")
    return {"known_defect": "a repeated generator changes the certificate answer (ROADMAP 5a)",
            "certificate_bodies": total, "repeated_generator_bodies": len(bodies),
            "wrong_answers": len(wrong), "wrong_share": len(wrong) / max(1, len(bodies)),
            "examples": wrong[:5]}


def rings_hulls(rk, seed):
    # warm the built-in caches the items read
    rk.quantum.builtin_algebra("quadric")
    states = {n: rk.qstate.ModelState(rk.toric.builtin_moment_data(f"cpn{n}"))
              for n in range(1, 5)}
    meshes = {n: rk.qstate.barycentric_refine(*rk.qstate.fan_triangulation(s.moment))
              for n, s in states.items()}
    data = Path(rk.cli.__file__).parent / "data"
    cli_items = [_cli_item(rk, [a.format(d=data) for a in argv]) for argv in CLI_COMMANDS]

    rng = random.Random(f"{seed}/rings-hulls")
    # each class's pairs are dealt from seeded shuffles of the class, so every
    # pair of a class comes up equally often in any stretch of rounds
    decks = [[] for _ in RING_MIX]

    def deal(k):
        if not decks[k]:
            decks[k] = list(RING_MIX[k][1])
            rng.shuffle(decks[k])
        return decks[k].pop()

    items, bodies = [], []
    for cycle in range(RH_CYCLES):
        cheap = []
        for _ in range(BUNDLES):
            radii = [(n, Fraction(rng.randrange(1, 121), 120)) for n in range(1, 5)]
            bodies += radii
            cheap.append(_certificate_item(rk, radii))
            cheap.append(_qstate_item(rk, states, meshes, rng))
        cheap += cli_items
        rings = []
        for k, (count, _) in enumerate(RING_MIX):
            for _ in range(count):
                pair = deal(k)
                rings.append(_ring_item(rk, *(pair if rng.random() < 0.5 else pair[::-1])))
        step = len(cheap) // len(rings)
        for i, ring in enumerate(rings):
            items.append(ring)
            items.extend(cheap[i * step:(i + 1) * step])
        items.extend(cheap[len(rings) * step:])
    probed = bodies[DEFECT_EVERY - 1::DEFECT_EVERY]
    return Workload(items, probe=lambda: _defect_probe(rk, probed, len(bodies)))


BUILDERS = {"complex-product": complex_product, "index": index, "rings-hulls": rings_hulls}
