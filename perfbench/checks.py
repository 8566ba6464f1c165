"""Output checks that survive the changes the ROADMAP allows.

Chamber reports are compared on a digest of ids, sign vectors, edges
and boundary flags; witnesses are left out of the digest and instead
verified exactly against their own sign vector and the open window.
pi1 is pinned on its counts.  check verdicts are compared with this
module's own evaluation of the table over all pairs of atoms, so they
stay comparable when the program switches to another relation set.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def chamber_digest(report: dict) -> str:
    return digest({
        "chambers": [[c["id"], c["signs"], c["boundary"]] for c in report["chambers"]],
        "edges": [[e["from"], e["to"], e["hyperplane"]] for e in report["edges"]],
    })


def pi1_counts(head: bytes) -> dict:
    """generator_count and relation_count from the start of a pi1 report.

    pi1 reports run to tens of megabytes, and the counts are its first
    two keys, so only the head is parsed.
    """
    text = head[:4096].decode("utf-8", "replace")
    return {
        key: int(m.group(1)) if (m := re.search(rf'"{key}": (\d+)', text)) else None
        for key in ("generator_count", "relation_count")
    }


def witness_errors(report: dict, arrangement: dict) -> str | None:
    """First chamber whose witness is off its sign vector or outside the window."""
    planes = [(h["normal"], h["level"]) for h in arrangement["hyperplanes"]]
    kind = arrangement["kind"]
    radius = None if kind == "central" else Fraction(kind["affine"]["radius"])
    for chamber in report["chambers"]:
        point = [Fraction(v) for v in chamber["witness"]]
        if len(point) != arrangement["dim"] or len(chamber["signs"]) != len(planes):
            return f"chamber {chamber['id']} has the wrong shape"
        for h, (sign, (normal, level)) in enumerate(zip(chamber["signs"], planes)):
            if sign * (sum(n * x for n, x in zip(normal, point)) - level) <= 0:
                return f"witness of chamber {chamber['id']} is not on side {sign} of hyperplane {h}"
        if radius is not None and any(abs(x) >= radius for x in point):
            return f"witness of chamber {chamber['id']} is outside the open window"
    return None


def atom_classes(edges, length_cap=None) -> list[list[tuple[int, ...]]]:
    """For each ordered chamber pair with two or more atoms, its atoms.

    ``edges`` is the pinned list of (source, target, hyperplane), indexed
    by edge id.  Atoms are the shortest directed paths; every unordered
    pair within one class is one relation of the all-pairs listing.
    """
    out_edges = {}
    for eid, (source, target, _) in enumerate(edges):
        out_edges.setdefault(source, []).append((eid, target))
        out_edges.setdefault(target, [])
    distance = {c: _bfs(out_edges, c) for c in out_edges}
    classes = []
    for source in out_edges:
        for target in out_edges:
            total = distance[source].get(target)
            if source == target or total is None:
                continue
            if length_cap is not None and total > length_cap:
                continue
            found = []
            _grow(out_edges, distance, source, target, total, [], found)
            if len(found) >= 2:
                classes.append(found)
    return classes


def _bfs(out_edges, start):
    dist, frontier = {start: 0}, [start]
    while frontier:
        nxt = []
        for v in frontier:
            for _, w in out_edges[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _grow(out_edges, distance, at, target, remaining, trail, found):
    if at == target:
        found.append(tuple(trail))
        return
    for eid, nxt in out_edges[at]:
        # The graph holds both directions of every wall crossing, so the
        # distance to the target equals the distance from it.
        if distance[target].get(nxt) == remaining - 1:
            trail.append(eid)
            _grow(out_edges, distance, nxt, target, remaining - 1, trail, found)
            trail.pop()


def relation_count(classes) -> int:
    return sum(len(c) * (len(c) - 1) // 2 for c in classes)


def table_holds(table: dict, classes) -> bool:
    """Do all atoms of each class fold to one permutation (first edge acting first)?"""

    def fold(path):
        images = tuple(range(len(table[path[0]])))
        for eid in path:
            step = table[eid]
            images = tuple(step[x] for x in images)
        return images

    return all(fold(p) == fold(q) for atoms in classes for p, q in combinations(atoms, 2))


def verify(case, rc: int, out: bytes, pin: dict | None, context: dict) -> str | None:
    """None when the invocation's exit code and output are right, else why not."""
    command = case[0]
    if command == "check":
        expected_ok = context["verdicts"][case]
        if rc != (0 if expected_ok else 1):
            return f"exit code {rc}, expected {0 if expected_ok else 1}"
        report = json.loads(out)
        if report.get("ok") is not expected_ok:
            return f"verdict ok={report.get('ok')!r}, expected {expected_ok}"
        return None
    if rc != 0:
        return f"exit code {rc}"
    if command == "pi1":
        counts = pi1_counts(out)
        if counts != {k: pin[k] for k in counts} or not out.endswith(b"}\n"):
            return f"pi1 counts {counts} differ from the pinned ones"
        return None
    report = json.loads(out)
    if command == "chambers":
        if chamber_digest(report) != pin["digest"]:
            return "chamber ids, sign vectors, edges or boundary flags changed"
        if report["count"] != len(report["chambers"]):
            return "count does not match the chamber list"
        problem = witness_errors(report, context["arrangements"][case])
        if problem:
            return problem
        expected = context["zaslavsky"].get(case)
        if expected is not None and report["count"] != expected:
            return f"{report['count']} chambers, Zaslavsky count is {expected}"
        return None
    if digest(report) != pin["digest"]:
        return f"{command} output changed"
    return None
