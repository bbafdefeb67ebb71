"""rigidkit benchmark: one closed-loop caller runs a workload's items for a
fixed time and prints the end-to-end metrics, or with --trace 1 the
per-layer metrics of a separate traced run.

    python3 perfbench/run.py --workload complex-product --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; rigidkit is imported from ./src.  The
last line of standard output is the JSON result; the full record (latency
quantiles, failures by class, provenance, the known-defect probe) is written
to perfbench/results/.  See perfbench/README.md.

Every timing is scaled to a reference machine speed measured in the same run
(see speed.py); the record keeps the raw wall-clock figures beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("novikov", "linalg", "complexes", "quantum", "spindex", "rational_geometry",
           "toric", "qstate", "documents", "cli", "corpus", "acceptance")
MIN_ITEMS = 100           # so that at least ten latency samples lie beyond p90
MAX_SECONDS = 150         # stop collecting MIN_ITEMS after this long
SETUP_SAMPLES = 3         # set-ups per run; setup_s is their median


def import_rigidkit():
    """Import rigidkit afresh from ./src, dropping any earlier import, so that
    every set-up pays for the import and starts with empty built-in caches."""
    for name in [m for m in sys.modules if m == "rigidkit" or m.startswith("rigidkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    rk = SimpleNamespace(**{m: importlib.import_module(f"rigidkit.{m}") for m in MODULES})
    if Path(rk.novikov.__file__).resolve().parent != SRC / "rigidkit":
        raise SystemExit(f"rigidkit imported from {rk.novikov.__file__}, not from {SRC}")
    return rk


def set_up(builder, seed, speed):
    """Import rigidkit and build the workload; returns the raw set-up time and
    the time scaled to the reference speed, from kernel samples on each side."""
    speed.sample(5)
    t0 = time.perf_counter()
    rk = import_rigidkit()
    workload = builder(rk, seed)
    t1 = time.perf_counter()
    speed.sample(5)
    return rk, workload, t1 - t0, (t1 - t0) * speed.scale(t0, t1)


def run_items(items, seconds, speed, tracer=None):
    """Closed loop: the next item starts when the previous one has returned.
    Items repeat in schedule order until ``seconds`` have passed and at least
    MIN_ITEMS have run.  The reference kernel runs between items, untimed."""
    from workloads import CheckFailed

    latencies, spans, kinds, failures, examples = [], [], Counter(), Counter(), []
    speed.sample(5)
    start = now = time.perf_counter()
    i = 0
    while now - start < seconds or (i < MIN_ITEMS and now - start < MAX_SECONDS):
        item = items[i % len(items)]
        if tracer is not None:
            span = tracer.begin_item(i)
        t0 = time.perf_counter()
        try:
            item.run()
        except CheckFailed as e:
            failures["CheckFailed"] += 1
            examples.append(f"item {i} ({item.kind}): {e}")
        except Exception as e:
            failures[type(e).__name__] += 1
            examples.append(f"item {i} ({item.kind}): {type(e).__name__}: {e}\n"
                            + traceback.format_exc(limit=-3))
        now = time.perf_counter()
        if tracer is not None:
            tracer.end_item(item.kind, *span)
        latencies.append(now - t0)
        spans.append((t0, now))
        kinds[item.kind] += 1
        i += 1
        speed.maybe_sample()
        now = time.perf_counter()
    speed.sample(5)
    scaled = [lat * speed.scale(t0, t1) for lat, (t0, t1) in zip(latencies, spans)]
    return SimpleNamespace(elapsed=now - start, latencies=latencies, scaled=scaled,
                           starts=[t0 - start for t0, _ in spans], origin=start,
                           kinds=kinds, failures=failures, examples=examples)


def summarize(latencies_s):
    """Throughput of the closed loop (items over the summed item latencies,
    so the reference kernel's own time is left out), and latency quantiles."""
    lat = [1000 * t for t in latencies_s]
    return {"items_per_s": 1000 * len(lat) / sum(lat), "p50": statistics.median(lat),
            "p90": statistics.quantiles(lat, n=10)[-1], "max": max(lat), "samples": len(lat),
            "latencies_ms": [round(x, 3) for x in lat]}


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "rigidkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, kinds):
    import numpy
    import scipy
    return {
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREADS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "items_per_kind": dict(sorted(kinds.items())),
    }


def main(argv=None):
    # pin BLAS to one thread before numpy is imported
    for key in BLAS_THREADS:
        os.environ[key] = "1"
    from workloads import BUILDERS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rigidkit" / "__init__.py").is_file():
        print(f"no rigidkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  third-party imports stay outside setup_s
    import scipy.linalg  # noqa: F401

    from speed import EXACT, FLOAT, Speedometer
    # each workload is scaled by a kernel of the kind of work its items do
    speed = Speedometer({"complex-product": EXACT, "index": FLOAT,
                         "rings-hulls": EXACT}[args.workload])
    builder = BUILDERS[args.workload]
    rk, workload, first_raw, first_setup = set_up(builder, args.seed, speed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(rk)
    run = run_items(workload.items, args.seconds, speed, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = workload.probe() if workload.probe else None

    timing = summarize(run.scaled)
    raw = summarize(run.latencies)
    attempted = len(run.latencies)
    failed = sum(run.failures.values())
    items_per_s = timing["items_per_s"]
    record = {
        "provenance": provenance(args, run.kinds),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures_by_class": dict(run.failures), "failure_examples": run.examples[:10],
        "distinct_items": len(workload.items), "elapsed_s": run.elapsed,
        "timing": timing, "raw_timing": raw, "probe": probe,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{'traced' if args.trace else 'untraced'}"
    if tracer is not None:
        metrics = tracer.metrics(attempted, items_per_s)
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl")
    else:
        setups, raw_setups = [first_setup], [first_raw]
        for _ in range(SETUP_SAMPLES - 1):
            *_, raw_s, scaled_s = set_up(builder, args.seed, speed)
            raw_setups.append(raw_s)
            setups.append(scaled_s)
        record["setup_samples_s"] = setups
        record["raw_setup_samples_s"] = raw_setups
        metrics = {
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "item_p50_ms": {"value": timing["p50"], "unit": "ms"},
            "item_p90_ms": {"value": timing["p90"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    record["reference_kernel"] = speed.summary()
    record["item_starts_s"] = run.starts
    record["kernel_samples"] = [(t - run.origin, d) for t, d in zip(speed.times, speed.durations)]
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {attempted} items "
          f"({len(workload.items)} distinct) in {run.elapsed:.2f} s, "
          f"{dict(sorted(run.kinds.items()))}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(f"  latency samples: {attempted}, {attempted // 10} of them beyond p90; "
          f"slowest item {timing['max']:.4g} ms")
    kernel = record["reference_kernel"]
    print(f"  at the reference speed; raw wall clock: {raw['items_per_s']:.4g} items/s, "
          f"p50 {raw['p50']:.4g} ms, p90 {raw['p90']:.4g} ms; reference kernel "
          f"{kernel['median_ms']:.3f} ms median over {kernel['samples']} samples "
          f"({kernel['kernel']} kernel, ref_ms {kernel['ref_ms']})")
    print(f"  failed {failed}/{attempted} (failed_frac {failed / attempted:.4f})"
          + (f" by class {dict(run.failures)}" if failed else ""))
    for line in run.examples[:5]:
        print("  " + line.rstrip().replace("\n", "\n    "))
    if probe:
        print(f"  probe: {json.dumps(probe)}")
    if tracer is not None:
        untraced = RESULTS / f"{args.workload}-seed{args.seed}-untraced.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["metrics"]["items_per_s"]["value"]
            print(f"  tracing overhead: {items_per_s:.3f} vs {base:.3f} items/s untraced "
                  f"({100 * (1 - items_per_s / base):.1f} % fewer)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
