"""End-to-end acceptance checks.

Each test covers one item of the release checklist and prints a single
PASS/FAIL line with the measured values, so the checklist can be read
off a plain ``pytest`` run.
"""

import json
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction

from floparr import (
    DynkinType,
    GroupoidEquality,
    GroupoidWord,
    atom_groups,
    atoms,
    check_representation,
    crossing_homomorphism,
    crossings,
    enumerate_chambers,
    equal_in_groupoid,
    generators,
    is_reduced,
    parse_perm,
    path_touches_boundary,
    positive_roots,
    product_arrangement,
    region_count_zaslavsky,
    rewrite_rules,
    separating_set,
    word_of_path,
)

from helpers import affine_graph, central, central_graph

CLI = [sys.executable, "-m", "floparr.cli"]


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _run(*argv):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True, env=os.environ.copy())


def test_01_root_counts():
    expected = {
        ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
        ("D", 4): 12, ("D", 5): 20, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    }
    t0 = time.perf_counter()
    got = {key: len(positive_roots(DynkinType(*key))) for key in expected}
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 1.0
    counts = " ".join(f"{f}{r}={n}" for (f, r), n in got.items())
    _report("root counts", ok, f"{counts} in {elapsed:.3f}s")


def test_02_chamber_counts_match_zaslavsky():
    one = central("A1:J={}")
    cases = [
        ("A1", central("A1:J={}")),
        ("A2", central("A2:J={}")),
        ("A3", central("A3:J={}")),
        ("A3:J={1}", central("A3:J={1}")),
        ("A4:J={1,2}", central("A4:J={1,2}")),
        ("A4:J={0,3}", central("A4:J={0,3}")),
        ("A1xA1", product_arrangement(one, one)),
        ("A1xA1xA1", product_arrangement(product_arrangement(one, one), one)),
    ]
    t0 = time.perf_counter()
    pairs = []
    for name, arr in cases:
        enumerated = len(enumerate_chambers(arr).chambers)
        counted = region_count_zaslavsky(arr)
        pairs.append((name, enumerated, counted))
    elapsed = time.perf_counter() - t0
    ok = all(e == c for _, e, c in pairs) and elapsed < 10.0
    detail = " ".join(f"{n}={e}/{c}" for n, e, c in pairs)
    _report("chambers vs region count", ok, f"{detail} in {elapsed:.2f}s")


def test_03_weyl_chamber_counts():
    got = [len(central_graph(t).chambers) for t in ("A1:J={}", "A2:J={}", "A3:J={}")]
    ok = got == [2, 6, 24]
    _report("reflection chamber counts", ok, f"A1,A2,A3 -> {got}")


def test_04_atom_law():
    cases = [
        ("A1", central_graph("A1:J={}"), False),
        ("A2", central_graph("A2:J={}"), False),
        ("A3:J={1}", central_graph("A3:J={1}"), False),
        ("A1 window 5/2", affine_graph("A1:J={}", Fraction(5, 2)), True),
        ("A2 window 3/2", affine_graph("A2:J={}", Fraction(3, 2)), True),
    ]
    checked = 0
    ok = True
    for _, g, windowed in cases:
        ids = [c.id for c in g.chambers]
        for s in ids:
            for t in ids:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    found = atoms(g, s, t)
                if windowed:
                    found = [p for p in found if not path_touches_boundary(g, p)]
                if not found:
                    continue
                sep = separating_set(g, s, t)
                lengths = {len(p) for p in found}
                for p in found:
                    order = crossings(g, p)
                    if not (is_reduced(g, p) and len(order) == len(sep) == len(set(order)) and set(order) == sep):
                        ok = False
                if lengths != {len(sep)}:
                    ok = False
                checked += len(found)
    _report("atom law", ok, f"{checked} atoms reduced, crossing each separating wall once")


def test_05_loops_cross_their_wall_twice():
    total = 0
    ok = True
    graphs = [central_graph("A1:J={}"), central_graph("A2:J={}"),
              affine_graph("A1:J={}", Fraction(5, 2))]
    for g in graphs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gens = generators(g)
        for x in gens:
            nu = crossing_homomorphism(g, x.loop)
            want = tuple(2 if h == x.wall else 0 for h in range(len(g.arrangement)))
            if nu != want:
                ok = False
            total += 1
    _report("loop crossing counts", ok, f"{total} generator loops, each nu = 2 at its wall")


def test_06_symmetric_group_check():
    g = central_graph("A2:J={}")
    cycles = {0: "(0 1)", 1: "(1 2)", 2: "(0 2)"}
    good = {e.id: parse_perm(cycles[e.hyperplane]) for e in g.edges}
    groups = list(atom_groups(g))
    passed = check_representation(g, good, groups)
    bad = dict(good)
    bad[0] = parse_perm("(0 1 2)")
    failed_a = check_representation(g, bad, groups)
    failed_b = check_representation(g, bad, groups)
    ok = (
        passed.ok and passed.checked == 6
        and not failed_a.ok and failed_a.failures == (0, 2, 4)
        and failed_a.failures == failed_b.failures
    )
    _report(
        "permutation check", ok,
        f"valid table passes {passed.checked} relations, corrupted fails {list(failed_a.failures)} twice",
    )


def test_07_product_chambers():
    prod = product_arrangement(central("A2:J={}"), central("A1:J={}"))
    enumerated = len(enumerate_chambers(prod).chambers)
    counted = region_count_zaslavsky(prod)
    ok = enumerated == counted == 12
    _report("product chambers", ok, f"A2 x A1 -> {enumerated} enumerated, {counted} counted")


def test_08_windowed_line_structure():
    g = affine_graph("A1:J={}", Fraction(5, 2))
    boundary = [c.id for c in g.chambers if c.boundary]
    degrees = sorted(len(g.out_edges(c.id)) for c in g.chambers)
    unique = True
    ids = [c.id for c in g.chambers]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in ids:
            for t in ids:
                if len(atoms(g, s, t)) != 1:
                    unique = False
    ok = (
        len(g.chambers) == 6 and len(boundary) == 2
        and degrees == [1, 1, 2, 2, 2, 2] and unique
    )
    _report(
        "windowed line", ok,
        f"{len(g.chambers)} cells, {len(boundary)} boundary, degrees {degrees}, unique atoms {unique}",
    )


def test_09_cli_outputs():
    a = _run("build", "A2:J={}", "--window", "1")
    b = _run("build", "A2:J={}", "--window", "1")
    svg = _run("plot", "A2:J={}", "--window", "1")
    fig = _run("search-figure", "--lines", "3", "--max-rank", "4")
    deterministic = a.returncode == 0 and a.stdout == b.stdout
    lines = svg.stdout.count("<line")
    level0 = svg.stdout.count('class="level0"')
    names = [m["data"] for m in json.loads(fig.stdout)["matches"]] if fig.returncode == 0 else []
    ok = (
        deterministic and svg.returncode == 0 and lines == 9 and level0 == 3
        and "A3:J={1}" in names
    )
    _report(
        "command line", ok,
        f"byte-identical builds {deterministic}, plot {lines} lines ({level0} through origin), "
        f"figure search hits {len(names)} with A3:J={{1}}",
    )


def test_10_groupoid_equality():
    g = central_graph("A2:J={}")
    rules = rewrite_rules(atom_groups(g))

    e = g.out_edges(0)[0]
    back = g.edge_across(e.target, e.hyperplane)
    out_and_back = GroupoidWord(0, ((e.id, 1), (back.id, 1), (back.id, -1), (e.id, -1)))
    empty = GroupoidWord(0, ())
    cancel = equal_in_groupoid(g, rules, out_and_back, empty, depth=2)

    far = g.id_of_signs((-1, -1, -1))
    pair = atoms(g, 0, far)
    braid = equal_in_groupoid(g, rules, word_of_path(pair[0]), word_of_path(pair[1]), depth=1)

    # soundness fuzz: words with different net crossings must never be
    # proven equal
    rng = random.Random(20260816)
    pool = []
    for _ in range(240):
        at = 0
        letters = []
        for _ in range(rng.randrange(0, 7)):
            edge = rng.choice(g.out_edges(at))
            rev = g.edge_across(edge.target, edge.hyperplane)
            if rng.random() < 0.5:
                letters.append((edge.id, 1))
            else:
                letters.append((rev.id, -1))
            at = edge.target
        pool.append((at, GroupoidWord(0, tuple(letters))))
    tried = 0
    sound = True
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            if tried >= 1000:
                break
            end_i, w_i = pool[i]
            end_j, w_j = pool[j]
            if end_i != end_j:
                continue
            if crossing_homomorphism(g, w_i) == crossing_homomorphism(g, w_j):
                continue
            verdict = equal_in_groupoid(g, rules, w_i, w_j, depth=1)
            if verdict is GroupoidEquality.PROVEN_EQUAL:
                sound = False
            tried += 1
        if tried >= 1000:
            break
    ok = (
        cancel is GroupoidEquality.PROVEN_EQUAL
        and braid is GroupoidEquality.PROVEN_EQUAL
        and tried >= 1000 and sound
    )
    _report(
        "groupoid equality", ok,
        f"cancellation {cancel.name}, opposite-atom pair {braid.name}, "
        f"{tried} distinct-crossing pairs never equated",
    )
