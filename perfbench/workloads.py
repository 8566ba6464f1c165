"""The benchmark's workloads and the inputs it generates for them.

A workload is a fixed list of CLI invocations, run in order as one pass.
Arguments in braces name an input file the benchmark writes before the
first pass: ``{a5_height2}`` is a fixed dim-5 arrangement, and
``{satisfying}`` / ``{violating}`` are permutation tables built from the
run's seed.  floparr only ever sees the generated files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = {
    # No window: wall tests and witness solves of the exact kernel on a
    # dim-4 and a dim-5 central arrangement (ROADMAP item 2).  build and
    # search-figure keep the dynkin and arrangement layers measured.
    "central": (
        ("chambers", "D4:J={}"),
        ("chambers", "--in", "{a5_height2}"),
        ("build", "E8:J={0,1,2,3}"),
        ("search-figure", "--lines", "6", "--max-rank", "8"),
    ),
    # Box windows: the only workload with boundary solves and box
    # constraints, and with parallel families of hyperplanes (item 2(b)).
    "windowed": (
        ("chambers", "A2:J={}", "--window", "7/2"),
        ("chambers", "A3:J={}", "--window", "1"),
        ("chambers", "D4:J={0,2}", "--window", "3/2"),
    ),
    # Atoms, loop generators, all-pairs relations, permutation checks and
    # the rewriting prover (ROADMAP item 3); enumeration is a small share.
    "groupoid": (
        ("pi1", "A3:J={}"),
        ("pi1", "D4:J={0,2}", "--window", "3/2"),
        ("check", "A3:J={}", "--rep", "{satisfying}"),
        ("check", "A3:J={}", "--rep", "{violating}"),
        ("check", "A3:J={}", "--rep", "{satisfying}", "--length-cap", "4", "--depth", "2"),
    ),
}

# Permutation tables act on {0, ..., DEGREE-1}.  A transposition is never
# a power of the DEGREE-cycle, because DEGREE > 2.
DEGREE = 5


def case_key(case) -> str:
    """Stable name of an invocation, placeholders left unexpanded."""
    return " ".join(case)


def a5_height2() -> dict:
    """The nine roots of A5 of height at most 2, as a central arrangement.

    It keeps the kernel in dimension 5 at about a tenth of the time that
    all fifteen roots (``A5:J={}``) take.
    """
    normals = []
    for start in range(5):
        for stop in range(start, min(start + 2, 5)):
            normals.append([1 if start <= i <= stop else 0 for i in range(5)])
    normals.sort()
    return {
        "dim": 5,
        "kind": "central",
        "hyperplanes": [{"normal": n, "level": 0} for n in normals],
    }


def cycle_power(k: int) -> tuple[int, ...]:
    return tuple((x + k) % DEGREE for x in range(DEGREE))


def transposition(a: int, b: int) -> tuple[int, ...]:
    images = list(range(DEGREE))
    images[a], images[b] = b, a
    return tuple(images)


def cycle_notation(images) -> str:
    seen, parts = set(), []
    for start, image in enumerate(images):
        if start in seen or image == start:
            continue
        cycle, x = [start], image
        seen.add(start)
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = images[x]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def seeded_tables(seed: int, edges) -> tuple[dict, dict]:
    """Edge id -> permutation images, satisfying and violating the relations.

    The satisfying table gives every edge across hyperplane h the same
    power of a fixed cycle, so any two atoms with common endpoints (which
    cross the same hyperplanes once each) fold to the same element.  The
    violating table replaces one seeded edge by a transposition.
    """
    rng = random.Random(seed)
    power = {h: rng.randrange(DEGREE) for h in sorted({h for _, _, h in edges})}
    satisfying = {eid: cycle_power(power[h]) for eid, (_, _, h) in enumerate(edges)}
    violating = dict(satisfying)
    a, b = rng.sample(range(DEGREE), 2)
    violating[rng.randrange(len(edges))] = transposition(a, b)
    return satisfying, violating


def write_inputs(directory: Path, seed: int, edges) -> tuple[dict, dict]:
    """Write every input file; return placeholder -> path and -> table."""
    satisfying, violating = seeded_tables(seed, edges)
    tables = {"satisfying": satisfying, "violating": violating}
    paths = {}
    for name, table in tables.items():
        paths[name] = directory / f"{name}.json"
        body = {str(eid): cycle_notation(images) for eid, images in table.items()}
        paths[name].write_text(json.dumps(body))
    paths["a5_height2"] = directory / "a5_height2.json"
    paths["a5_height2"].write_text(json.dumps(a5_height2()))
    return {k: str(v) for k, v in paths.items()}, tables


def expand(case, paths) -> list[str]:
    return [paths[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in case]
