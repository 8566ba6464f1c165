"""Regenerate pins.json from the outputs of the checked-out floparr.

    python3 perfbench/pin.py

The pins are what checks.py compares against: a digest of chamber ids,
sign vectors, edges and boundary flags; pi1 counts; build and
search-figure output; the edge list of A3:J={} that the seeded
permutation tables are written for; and a sha256 of each seed-free
invocation's stdout, which the benchmark reports as drift only.  Re-pin
only for a change that alters these outputs on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from run import CLI, HERE, SCRATCH, SRC, run_child
from workloads import WORKLOADS, a5_height2, case_key, expand

import checks


def run_cli(args, env) -> bytes:
    _, _, rc, out, err = run_child([*CLI, *args], env, time.perf_counter() + 600)
    if rc != 0:
        raise SystemExit(f"floparr {' '.join(args)} exited {rc}: {err}")
    return out


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        env = dict(os.environ, PYTHONPATH=str(SRC), FLOPARR_CACHE=tmp)
        inputs = {"a5_height2": str(Path(tmp) / "a5_height2.json")}
        Path(inputs["a5_height2"]).write_text(json.dumps(a5_height2()))
        a3 = json.loads(run_cli(["chambers", "A3:J={}"], env))
        pins = {"a3_edges": [[e["from"], e["to"], e["hyperplane"]] for e in a3["edges"]], "cases": {}}
        for cases in WORKLOADS.values():
            for case in cases:
                if any(a in ("{satisfying}", "{violating}") for a in case):
                    continue
                out = run_cli(expand(case, inputs), env)
                if case[0] == "pi1":
                    pin = checks.pi1_counts(out)
                elif case[0] == "chambers":
                    pin = {"digest": checks.chamber_digest(json.loads(out))}
                else:
                    pin = {"digest": checks.digest(json.loads(out))}
                pin["stdout_sha256"] = hashlib.sha256(out).hexdigest()
                pins["cases"][case_key(case)] = pin
                print(f"{case_key(case)}: {pin}", file=sys.stderr)
    ours = checks.relation_count(checks.atom_classes(pins["a3_edges"]))
    theirs = pins["cases"]["pi1 A3:J={}"]["relation_count"]
    if ours != theirs:
        raise SystemExit(f"own all-pairs relation count {ours} differs from pi1's {theirs}")
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
