"""Golden ``--json`` payloads of the toric, qstate, ring and complex commands.

Each command's report, with ``timing_ms`` removed, must equal the payload
recorded in ``tests/golden/cli_payloads.json``.  Input paths under the
shipped data directory are recorded as ``{d}/<name>``.

The golden file is written by ``python tests/test_cli_golden.py --write``
from a checkout with ``src`` on the path.  Rewrite it only for an intended
change of a payload, and say which payloads changed and why.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from rigidkit.cli import main as cli_main

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "rigidkit", "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_payloads.json")

BUILTINS = ("cpn1", "cpn2", "cpn3", "cpn4", "s2xs2", "blowup")

COMMANDS = (
    *(("toric", f"builtin:{name}", "--pspec", "--delzant", "--normalize") for name in BUILTINS),
    *(("toric", "builtin:cpn1", f"--fiber={x}") for x in ("0", "1/4", "-1/3", "1/2")),
    *(("toric", "builtin:blowup", f"--fiber={x}") for x in ("-1/12,-1/12", "0,0", "1/2,-1")),
    ("toric", "--ball", "1", "1/3"),
    ("toric", "--ball", "1", "1/2"),
    *(("qstate", f"builtin:{name}", "--axioms", "--trials", "10") for name in ("cpn1", "cpn2")),
    # the toric and qstate commands of the rings-hulls benchmark
    ("toric", "{d}/cpn2.polytope.json", "--pspec", "--delzant",
     "--displaceable", "{d}/ball_half.body.json"),
    ("toric", "{d}/blowup.polytope.json", "--pspec", "--normalize"),
    ("qstate", "{d}/cpn2.polytope.json", "--zeta", "{d}/vee.pl.json",
     "--heavy", "{d}/ball_half.body.json"),
    # the exact half: quantum rings and decorated complexes over the Novikov field
    ("ring", "{d}/quadric.ring.json", "--check-axioms", "--semisimple"),
    ("ring", "{d}/cpn2_f2.ring.json", "--check-axioms", "--semisimple", "--idempotent", "[M]"),
    ("ring", "builtin:cpn2-q", "--kunneth", "builtin:quadric"),
    ("ring", "builtin:quadric", "--divide", "A", "[M]"),
    ("ring", "builtin:cpn3-q", "--divide", "A", "[M]", "--semisimple"),
    ("complex", "{d}/a.cplx.json", "--validate", "--spectral-basis", "--c", "h1"),
    ("complex", "{d}/a.cplx.json", "--tensor", "{d}/b.cplx.json", "--verify-product",
     "--trials", "5"),
)


def key(argv):
    return " ".join(argv)


def payload(argv):
    """Exit code and --json report of one command, timing removed and the
    data directory written as {d}."""
    data = os.path.abspath(DATA)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([a.replace("{d}", data) for a in argv] + ["--json"])
    report = json.loads(out.getvalue())
    report.pop("timing_ms")
    report["inputs"] = {k.replace(data, "{d}"): v for k, v in report["inputs"].items()}
    return {"exit": code, "report": report}


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_command():
    assert sorted(load_golden()) == sorted(key(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=key)
def test_payload_matches_golden(argv):
    assert payload(argv) == load_golden()[key(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({key(argv): payload(argv) for argv in COMMANDS}, fh, indent=1, sort_keys=True)
        fh.write("\n")
