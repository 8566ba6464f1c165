import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations

import pytest

import floparr
from floparr import (
    Arrangement,
    GroupoidEquality,
    arrangement_to_json,
    atom_groups,
    enumerate_chambers,
    equal_in_groupoid,
    errors,
    graph_to_json,
    rewrite_rules,
    word_of_path,
)
from floparr.arrangement import dumps
from floparr.cli import main

from helpers import a5_height_two, affine, central

CLI = [sys.executable, "-m", "floparr.cli"]


def run(*argv, check=False, timeout=None):
    proc = subprocess.run(
        CLI + list(argv), capture_output=True, text=True, env=os.environ.copy(), timeout=timeout
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_build_central():
    proc = run("build", "A2:J={}", check=True)
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "central"
    assert len(doc["hyperplanes"]) == 3


def test_build_window_shorthand():
    proc = run("build", "A2:J={}", "--window", "1", check=True)
    doc = json.loads(proc.stdout)
    assert doc["kind"] == {"affine": {"radius": "1"}}
    assert len(doc["hyperplanes"]) == 9


def test_build_affine_radius():
    # --window is the only kind flag; --affine, --radius and --central are gone
    for flags in (["--affine"], ["--affine", "--radius", "5/2"], ["--radius", "5/2"], ["--central"]):
        proc = run("build", "A1:J={}", *flags)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments" in proc.stderr
    doc = json.loads(run("build", "A1:J={}", "--window", "5/2", check=True).stdout)
    assert [h["level"] for h in doc["hyperplanes"]] == [-2, -1, 0, 1, 2]


def test_build_deterministic_bytes():
    a = run("build", "A3:J={1}", check=True)
    b = run("build", "A3:J={1}", check=True)
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_build_ignores_cache_settings(tmp_path):
    plain = run("build", "A2:J={}", check=True).stdout
    home = tmp_path / "home"
    home.mkdir()
    env = os.environ.copy()
    env.pop("FLOPARR_CACHE", None)
    env["HOME"] = str(home)
    no_cache = subprocess.run(CLI + ["build", "A2:J={}"], capture_output=True, text=True, env=env)
    assert (no_cache.returncode, no_cache.stdout) == (0, plain)
    assert list(home.iterdir()) == []
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    env["FLOPARR_CACHE"] = str(blocker)
    file_cache = subprocess.run(CLI + ["build", "A2:J={}"], capture_output=True, text=True, env=env)
    assert (file_cache.returncode, file_cache.stdout) == (0, plain)


def test_out_writes_file(tmp_path):
    target = tmp_path / "arr.json"
    proc = run("build", "A2:J={}", "--out", str(target), check=True)
    assert proc.stdout == ""
    assert json.loads(target.read_text())["kind"] == "central"


def test_out_to_missing_directory(tmp_path):
    proc = run("build", "A2:J={}", "--out", str(tmp_path / "missing" / "arr.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("floparr: cannot write")


def test_build_without_input():
    proc = run("build")
    assert proc.returncode == 2
    assert proc.stderr == "floparr: need a Dynkin data string or --in FILE\n"


def test_in_file_round_trip(tmp_path):
    built = run("build", "A3:J={1}", check=True).stdout
    path = tmp_path / "arr.json"
    path.write_text(built)
    direct = run("chambers", "A3:J={1}", check=True).stdout
    loaded = run("chambers", "--in", str(path), check=True).stdout
    assert direct == loaded


@pytest.mark.parametrize("extra", [["A3:J={1}"], ["--window", "1"]], ids=["data", "window"])
def test_in_file_takes_no_other_input(tmp_path, extra):
    path = tmp_path / "arr.json"
    path.write_text(run("build", "A3:J={1}", check=True).stdout)
    proc = run("chambers", "--in", str(path), *extra)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "floparr: --in FILE takes no Dynkin data string and no --window\n"


@pytest.mark.parametrize(
    "command, doc",
    [
        ("chambers", {"dim": 2, "kind": "central", "hyperplanes": [{"normal": [0, 0], "level": 0}]}),
        ("build", {"dim": 1, "kind": {"affine": {"radius": "1/0"}}, "hyperplanes": []}),
    ],
    ids=["zero normal", "radius 1/0"],
)
def test_in_file_malformed_values(tmp_path, command, doc):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    proc = run(command, "--in", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, text, what",
    [
        (["build", "--in"], "[" * 100000, "arrangement"),
        (["check", "A2:J={}", "--rep"], '{"0": ' * 50000, "representation"),
        (["build", "--in"], '{"dim": 1, "kind": "central", "hyperplanes": [], "dim": 2}', "arrangement"),
    ],
    ids=["deep --in", "deep --rep", "repeated key --in"],
)
def test_json_file_that_does_not_load(tmp_path, argv, text, what):
    # JSON nested past the parser's recursion limit ended in a traceback,
    # exit 1, and --in kept the last of a repeated key; one loader reads both files
    path = tmp_path / "input.json"
    path.write_text(text)
    proc = run(*argv, str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"floparr: cannot load {what} from {path}: ")
    assert "Traceback" not in proc.stderr


def test_chambers_counts():
    doc = json.loads(run("chambers", "A2:J={}", check=True).stdout)
    assert doc["count"] == 6
    assert doc["boundary_count"] == 0
    assert len(doc["edges"]) == 12


def test_chambers_deterministic():
    a = run("chambers", "A2:J={}", "--window", "3/2", check=True).stdout
    b = run("chambers", "A2:J={}", "--window", "3/2", check=True).stdout
    assert a == b


@pytest.mark.parametrize(
    "argv, arr",
    [
        (["A1:J={}"], lambda: central("A1:J={}")),
        (["A2:J={}", "--window", "7/2"], lambda: affine("A2:J={}", "7/2")),
        (None, a5_height_two),
        (None, lambda: Arrangement(2, None, ())),
    ],
    ids=["A1", "A2 r=7/2", "A5 height<=2", "no hyperplanes"],
)
def test_chambers_streams_the_graph_json(tmp_path, argv, arr):
    # chambers renders each chamber and edge as it writes it; the bytes are
    # those of the whole report built as a dict.  With no hyperplanes the
    # one chamber has "signs": [] and the edge list is empty
    arr = arr()
    if argv is None:
        (tmp_path / "arr.json").write_text(json.dumps(arrangement_to_json(arr)))
        argv = ["--in", str(tmp_path / "arr.json")]
    graph = enumerate_chambers(arr)
    report = {"count": len(graph), "boundary_count": sum(c.boundary for c in graph.chambers), **graph_to_json(graph)}
    assert run("chambers", *argv, check=True).stdout == dumps(report)


def test_atoms_between_opposite_sectors():
    doc = json.loads(run("atoms", "A2:J={}", "--from", "0", "--to", "5", check=True).stdout)
    assert doc["count"] == 2
    assert doc["length"] == 3
    assert len(doc["atoms"]) == 2


def test_pi1_report():
    doc = json.loads(run("pi1", "A2:J={}", check=True).stdout)
    assert len(doc["generators"]) == 14
    assert len(doc["relations"]) == 6
    first = doc["generators"][0]
    assert set(first) >= {"atom", "wall", "loop", "crossing"}


def test_check_passes(tmp_path):
    rep = tmp_path / "rep.json"
    build = json.loads(run("chambers", "A2:J={}", check=True).stdout)
    cycles = {0: "(0 1)", 1: "(1 2)", 2: "(0 2)"}
    table = {str(i): cycles[e["hyperplane"]] for i, e in enumerate(build["edges"])}
    rep.write_text(json.dumps(table))
    proc = run("check", "A2:J={}", "--rep", str(rep))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True
    assert doc["relations"] == 6


def test_check_detects_corruption(tmp_path):
    rep = tmp_path / "rep.json"
    build = json.loads(run("chambers", "A2:J={}", check=True).stdout)
    cycles = {0: "(0 1)", 1: "(1 2)", 2: "(0 2)"}
    table = {str(i): cycles[e["hyperplane"]] for i, e in enumerate(build["edges"])}
    table["0"] = "(0 1 2)"
    rep.write_text(json.dumps(table))
    proc = run("check", "A2:J={}", "--rep", str(rep))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["failures"] == [0, 2, 4]


def test_check_with_rewrite_depth(tmp_path):
    rep = tmp_path / "rep.json"
    build = json.loads(run("chambers", "A2:J={}", check=True).stdout)
    cycles = {0: "(0 1)", 1: "(1 2)", 2: "(0 2)"}
    table = {str(i): cycles[e["hyperplane"]] for i, e in enumerate(build["edges"])}
    rep.write_text(json.dumps(table))
    proc = run("check", "A2:J={}", "--rep", str(rep), "--depth", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rewrite_depth"] == 1
    assert doc["rewrite_proven"] == [True] * 6
    # the CLI runs no search; each verdict is the library prover's, with
    # the relations themselves as its rules
    for arr, cap in ((central("A2:J={}"), None), (central("A3:J={}"), 3), (affine("A2:J={}", "3/2"), None)):
        g = enumerate_chambers(arr)
        rep.write_text(json.dumps({str(e.id): "()" for e in g.edges}))
        (tmp_path / "arr.json").write_text(dumps(arrangement_to_json(arr)))
        groups = list(atom_groups(g, cap))
        rules = rewrite_rules(groups)
        pairs = [(word_of_path(p), word_of_path(q)) for group in groups for p, q in combinations(group, 2)]
        for depth in (0, 1, 2):
            argv = ["check", "--in", str(tmp_path / "arr.json"), "--rep", str(rep), "--depth", str(depth)]
            doc = json.loads(run(*argv, *(["--length-cap", str(cap)] if cap else []), check=True).stdout)
            assert (doc["relations"], doc["rewrite_depth"]) == (len(pairs), depth)
            assert doc["rewrite_proven"] == [
                equal_in_groupoid(g, rules, p, q, depth) is GroupoidEquality.PROVEN_EQUAL for p, q in pairs
            ]


# edges across hyperplane h act as the (h+1)-st power of one 7-cycle, so
# any two atoms with common ends fold to the same permutation
A3_POWERS = ["(0 1 2 3 4 5 6)", "(0 2 4 6 1 3 5)", "(0 3 6 2 5 1 4)",
             "(0 4 1 5 2 6 3)", "(0 5 3 1 6 4 2)", "(0 6 5 4 3 2 1)"]


def _a3_rep(tmp_path, violating=False):
    # violating: edge 0 acts as a transposition, which no power of the
    # 7-cycle is, so some relations fail
    rep = tmp_path / ("bad.json" if violating else "rep.json")
    edges = json.loads(run("chambers", "A3:J={}", check=True).stdout)["edges"]
    table = {str(i): A3_POWERS[e["hyperplane"]] for i, e in enumerate(edges)}
    if violating:
        table["0"] = "(0 1)"
    rep.write_text(json.dumps(table))
    return str(rep)


def test_check_negative_depth(tmp_path):
    proc = run("check", "A2:J={}", "--rep", str(tmp_path / "unread.json"), "--depth", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "depth must be at least 0" in proc.stderr


def test_check_reads_rep_before_enumerating(tmp_path):
    # a window of 10000 exceeds Buck's bound, which used to exit 4 before
    # the table was read; a bad table now fails first, whatever the size
    missing = str(tmp_path / "missing.json")
    proc = run("check", "A2:J={}", "--window", "10000", "--rep", missing)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"cannot load representation from {missing}" in proc.stderr


@pytest.mark.parametrize("command", ["check", "pi1"])
def test_negative_length_cap_rejected(tmp_path, command):
    # a negative cap used to select no relations, so check passed any table
    rep = ["--rep", _a3_rep(tmp_path, violating=True)] if command == "check" else []
    proc = run(command, "A3:J={}", *rep, "--length-cap", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "length cap must be at least 0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["pi1", "A2:J={}", "--cap", "-1"],
        ["atoms", "A2:J={}", "--from", "0", "--to", "5", "--cap", "-3"],
        ["search-figure", "--lines", "-1"],
        ["search-figure", "--lines", "3", "--max-rank", "-3"],
    ],
)
def test_negative_cap_rejected(argv):
    # a negative cap used to exit 4 with "more than -1 atoms from 0 to 0";
    # a negative line count or rank used to exit 0 with no matches
    proc = run(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"{argv[-2][2:].replace('-', ' ')} must be at least 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_cap_is_a_cap():
    proc = run("pi1", "A2:J={}", "--cap", "0")
    assert proc.returncode == 4
    assert proc.stdout == ""


def test_check_renumbers_large_points(tmp_path):
    # cycle notation used to allocate one slot per integer up to the
    # largest point named; renumbering the named points keeps every verdict
    edges = json.loads(run("chambers", "A2:J={}", check=True).stdout)["edges"]
    reports = []
    for a, b, c in ((0, 1, 2), (0, 10**12, 10**15)):
        cycles = {0: f"({a} {b})", 1: f"({b} {c})", 2: f"({a} {c})"}
        table = {str(i): cycles[e["hyperplane"]] for i, e in enumerate(edges)}
        table["0"] = f"({a} {b} {c})"
        rep = tmp_path / f"rep{c}.json"
        rep.write_text(json.dumps(table))
        proc = run("check", "A2:J={}", "--rep", str(rep), "--depth", "1", timeout=30)
        reports.append((proc.returncode, proc.stdout, proc.stderr))
    assert reports[0] == reports[1]
    assert reports[0][0] == 1
    assert json.loads(reports[0][1])["failures"] == [0, 2, 4]


def test_check_uncapped_depth_zero(tmp_path):
    # all 4152 relations are checked; at depth 0 none is proven
    proc = run("check", "A3:J={}", "--rep", _a3_rep(tmp_path), "--depth", "0", timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["relations"], doc["ok"], doc["rewrite_depth"]) == (4152, True, 0)
    assert doc["rewrite_proven"] == [False] * 4152


def test_check_uncapped_depth_one(tmp_path):
    # all 4152 relations at depth 1; each is one of the prover's rules, so
    # the CLI reports them proven without a search
    proc = run("check", "A3:J={}", "--rep", _a3_rep(tmp_path), "--depth", "1", timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["relations"], doc["ok"], doc["rewrite_depth"]) == (4152, True, 1)
    # verdicts and bytes as the prover's search computed them
    assert doc["rewrite_proven"] == [True] * 4152
    digest = "9ff60e781511957fc5dfd857cbbfadc1c2a236e856e1c5e82549f668c71954db"
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest, code",
    [
        (["pi1", "A3:J={}"], "e249f48ab5f0fb13fb8a9d5ff94f93fef984e0a3ab071f59bc8c4c4d3e566be0", 0),
        (["pi1", "A3:J={}", "--length-cap", "3"], "175949cce5e80db3afba0f8f7acae0a7db46f566caa08a1cececc7f567ef58d3", 0),
        (["pi1", "A2:J={}", "--window", "3/2"], "a0ace301dd1bfbbb7abcf6667375a8058bb7d6763ed1476f8c57318d83dfee99", 0),
        # 95444 relations, 56 MB of JSON streamed in chunks
        (
            ["pi1", "D4:J={0,2}", "--window", "3/2"],
            "5ac4db81086e9feeaf9ebc8cdd995f232111fd2f4cde37adfa997b75dbc23f80",
            0,
        ),
        (
            ["pi1", "D4:J={0,2}", "--window", "3/2", "--length-cap", "4"],
            "869ce3f25704d257bd4dee204b0fa5304d9b488ab10f2a30d2a690e7b4780f7b",
            0,
        ),
        (
            ["check", "A3:J={}", "--rep", "{rep}", "--length-cap", "4", "--depth", "2"],
            "b610927107da9b9961eee3b6e8b8323a718660d4207f8d0e64f50bfae69c13b4",
            0,
        ),
        # 508 of 4152 relations fail
        (
            ["check", "A3:J={}", "--rep", "{bad}"],
            "b5fac2c04a5e88d491cd4efbe01ed1d192d58b48f43d113d8984cea94e838867",
            1,
        ),
    ],
    ids=[
        "pi1 A3",
        "pi1 A3 cap 3",
        "pi1 A2 window 3/2",
        "pi1 D4:J={0,2} window 3/2",
        "pi1 D4:J={0,2} window 3/2 cap 4",
        "check A3 cap 4 depth 2",
        "check A3 violating",
    ],
)
def test_groupoid_outputs_pinned(tmp_path, argv, digest, code):
    # sha256 of the canonical JSON; a change in atom order, relations,
    # failure indices or prover verdicts shows up here
    reps = {"{rep}": lambda: _a3_rep(tmp_path), "{bad}": lambda: _a3_rep(tmp_path, violating=True)}
    argv = [reps[a]() if a in reps else a for a in argv]
    proc = run(*argv)
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_pi1_out_file_matches_stdout(tmp_path):
    target = tmp_path / "pi1.json"
    proc = run("pi1", "A3:J={}", "--out", str(target), check=True)
    assert proc.stdout == ""
    assert target.read_bytes() == run("pi1", "A3:J={}", check=True).stdout.encode()


@pytest.mark.parametrize(
    "argv",
    [["A3:J={}"], ["A2:J={}", "--window", "3/2"], ["D4:J={0,2}", "--window", "3/2", "--length-cap", "4"]],
    ids=["A3", "A2 window 3/2", "D4:J={0,2} window 3/2 cap 4"],
)
def test_pi1_relation_count_matches_listing(argv):
    # the count comes from relation_count, apart from the streamed listing
    doc = json.loads(run("pi1", *argv, check=True).stdout)
    assert doc["relation_count"] == len(doc["relations"]) > 0


def test_pi1_memory_peak(tmp_path):
    # 95444 relations; traced peak about 1.3 MB when they are counted first
    # and listed one source walk at a time, 3.5 MB with the walks of every
    # source held at once, about 9 MB with every atom of every source
    # rendered before the first byte, about 28 MB with one dict per relation
    target = tmp_path / "pi1.json"
    tracemalloc.start()
    try:
        assert main(["pi1", "D4:J={0,2}", "--window", "3/2", "--out", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size == 56123754
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "5ac4db81086e9feeaf9ebc8cdd995f232111fd2f4cde37adfa997b75dbc23f80"
    )
    assert peak < 2.5 * 10**6


def test_chambers_memory_peak(tmp_path):
    # 720 chambers and 3,600 edges; traced peak about 1.8 MB with one copy
    # of the graph, rendered as it is written, and empty flips kept as
    # minus-sign bits; 3.0 MB with the report built whole before the first
    # byte and every empty flip kept as a sign tuple
    target = tmp_path / "chambers.json"
    tracemalloc.start()
    try:
        assert main(["chambers", "A5:J={}", "--out", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "9bdd30e22e8a45bc56f50b62825ad80c10d9b44b4b0fc5d85ba2a58d1ebc4ba6"
    )
    assert peak < 2.6 * 10**6


def test_pi1_failure_writes_nothing():
    # generators overflow at --cap 1; the relations are never emitted in part
    proc = run("pi1", "A3:J={}", "--cap", "1")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("floparr: ")


@pytest.mark.parametrize("command", ["pi1", "check"])
def test_relation_cap_before_any_output(tmp_path, command):
    # A4 has 47,854,200 relations, above MAX_RELATIONS; pi1 was killed at
    # 7.7 GB before its first byte.  The count stops both commands early
    rep = []
    if command == "check":
        edges = json.loads(run("chambers", "A4:J={}", check=True).stdout)["edges"]
        (tmp_path / "rep.json").write_text(json.dumps({str(i): "()" for i in range(len(edges))}))
        rep = ["--rep", str(tmp_path / "rep.json")]
    proc = run(command, "A4:J={}", *rep, timeout=30)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("floparr: more than 10000000 relations")


def test_closed_stdout_is_quiet():
    # the reader goes away before any output, as in `floparr ... | head -c 0`
    with subprocess.Popen(
        CLI + ["chambers", "A4:J={}"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=os.environ.copy()
    ) as proc:
        proc.stdout.read(0)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


def test_plot_line_elements():
    svg = run("plot", "A2:J={}", "--window", "1", check=True).stdout
    assert svg.count("<line") == 9
    assert svg.count("level0") == 3
    assert svg.count("shift") == 6
    assert 'viewBox="0 0 600 600"' in svg


def test_plot_chamber_overlay():
    plain = run("plot", "A2:J={}", check=True).stdout
    dotted = run("plot", "A2:J={}", "--chambers", check=True).stdout
    assert plain.count("<circle") == 0
    assert dotted.count("<circle") == 6


def test_search_figure():
    doc = json.loads(run("search-figure", "--lines", "3", "--max-rank", "4", check=True).stdout)
    assert doc["target"] == 3
    names = [m["data"] for m in doc["matches"]]
    assert "A3:J={1}" in names
    assert "A2:J={}" in names
    assert all(m["hyperplanes"] == 3 for m in doc["matches"])


def test_search_figure_self_consistent():
    doc = json.loads(run("search-figure", "--lines", "4", "--max-rank", "5", check=True).stdout)
    assert doc["matches"]
    for match in doc["matches"]:
        built = json.loads(run("build", match["data"], check=True).stdout)
        assert len(built["hyperplanes"]) == 4


def test_exit_code_failed_precondition(tmp_path):
    # an error that is not a failed check: the table leaves out edge 0
    rep = tmp_path / "rep.json"
    build = json.loads(run("chambers", "A2:J={}", check=True).stdout)
    rep.write_text(json.dumps({str(i): "()" for i in range(1, len(build["edges"]))}))
    proc = run("check", "A2:J={}", "--rep", str(rep))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "edge 0" in proc.stderr


def test_check_refuses_extra_edge_ids(tmp_path):
    # a table naming edges the graph lacks exited 0 with "ok": true
    rep = tmp_path / "rep.json"
    _a3_rep(tmp_path)
    rep.write_text(json.dumps({**json.loads(rep.read_text()), "999": "()", "-5": "()"}))
    proc = run("check", "A3:J={}", "--rep", str(rep))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "no edge 999" in proc.stderr


@pytest.mark.parametrize("key", ["00", " 0", "+0", "0"], ids=["leading zero", "space", "plus", "repeated"])
def test_check_refuses_a_second_name_for_an_edge(tmp_path, key):
    # each of these keys named edge 0 a second time, and the last one won:
    # the satisfying table plus "00": "(0 1 2)" exited 1 with failures [0, 2, 4]
    edges = json.loads(run("chambers", "A2:J={}", check=True).stdout)["edges"]
    cycles = {0: "(0 1)", 1: "(1 2)", 2: "(0 2)"}
    table = json.dumps({str(i): cycles[e["hyperplane"]] for i, e in enumerate(edges)})
    rep = tmp_path / "rep.json"
    rep.write_text(table[:-1] + f', "{key}": "(0 1 2)"}}')
    assert json.loads(rep.read_text())[key] == "(0 1 2)"
    proc = run("check", "A2:J={}", "--rep", str(rep))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"floparr: cannot load representation from {rep}")


EXIT_CODES = {
    errors.FloparrError: 1,
    errors.ParseFailure: 2,
    errors.InvalidType: 2,
    errors.EmptySurvivingSet: 3,
    errors.MixedKinds: 1,
    errors.UnknownChamber: 5,
    errors.NonComposable: 1,
    errors.Unreachable: 1,
    errors.Overflow: 4,
    errors.MissingEdgeAssignment: 1,
    errors.BaseMismatch: 1,
    errors.NotRankTwo: 6,
}


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)],
    ids=lambda c: c.__name__,
)
def test_exit_code_table(cls):
    assert cls.exit_code == EXIT_CODES[cls]


def test_exit_code_parse_failure():
    assert run("build", "Q9:J={}").returncode == 2


@pytest.mark.parametrize("data", ["A3:J={}\n", "A\uff13:J={}", "A3:J={\u0661}"], ids=["newline", "fullwidth", "arabic-indic"])
def test_data_is_matched_whole_in_ascii(data):
    # $ let a trailing newline through, and \d took any Unicode digit
    proc = run("build", data)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "cannot parse" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("window", ["nope", "0", "-1", "1/0"])
def test_bad_window_is_a_parse_failure(window):
    proc = run("chambers", "A2:J={}", "--window", window)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"floparr: bad --window {window!r}: ")
    assert "Traceback" not in proc.stderr


def test_exit_code_empty_surviving():
    assert run("build", "A2:J={0,1}").returncode == 3


def test_exit_code_overflow():
    proc = run("atoms", "A2:J={}", "--from", "0", "--to", "5", "--cap", "1")
    assert proc.returncode == 4


@pytest.mark.parametrize(
    "radius, message",
    [
        ("1e400", "more than 100000"),
        ("1e9", "more than 100000"),
        # 80,001 lines build at once; Buck's bound times H stops the enumeration
        ("1e4", "up to 3200120002 chambers by Buck's bound, of 80001 signs each: more than 100000000 signs in all"),
        # 2,883,602 chambers are under 10**7, but of 2401 signs each: 6.9e9 signs
        ("300", "up to 2883602 chambers by Buck's bound, of 2401 signs each: more than 100000000 signs in all"),
    ],
    ids=["1e400", "1e9", "1e4", "300"],
)
def test_exit_code_oversize_window(radius, message):
    # the translates and the chambers are counted before any is built, so this
    # is quick: about 0.1 s, and 0.4 s for 1e4, which builds 80,001 hyperplanes
    start = time.perf_counter()
    proc = run("chambers", "A2:J={}", "--window", radius, timeout=30)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["build", "A100000:J={}"], None),
        (["search-figure", "--lines", "3", "--max-rank", "100000"], None),
        (["chambers"], {"dim": 10**6, "kind": "central", "hyperplanes": []}),
    ],
    ids=["rank", "max-rank", "dim"],
)
def test_exit_code_oversize_rank_or_dim(tmp_path, argv, doc):
    # rank and dimension are capped before any root or witness is built
    if doc is not None:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--in", str(path)]
    proc = run(*argv, timeout=30)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "above the cap 64" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_numbers_too_long_for_int_are_parse_failures():
    digits = "9" * 5000
    for data in (f"A{digits}:J={{}}", f"A3:J={{{digits}}}"):
        proc = run("build", data, timeout=30)
        # Pythons without the int() digit limit read the rank and cap it
        assert proc.returncode in (2, 4)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["build", "A2:J={}", "--window", "1e-5000"], None),
        (["chambers"], {"dim": 1, "kind": {"affine": {"radius": "1e5000"}}, "hyperplanes": [{"normal": [1], "level": 0}]}),
        # Fraction would spend minutes expanding 10**100000000
        (["build", "A2:J={}", "--window", "1e-100000000"], None),
        (["build"], {"dim": 1, "kind": {"affine": {"radius": "1e-100000000"}}, "hyperplanes": []}),
        # legal normals whose chamber witnesses have more than 5000 digits
        (["chambers"], {"dim": 2, "kind": "central", "hyperplanes": [
            {"normal": [1, 10**2500 + 1], "level": 0},
            {"normal": [10**2500 + 1, -1], "level": 0},
        ]}),
    ],
    ids=["window 1e-5000", "radius 1e5000", "window 1e-100000000", "radius 1e-100000000", "witness"],
)
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python writes ints of any length")
def test_numbers_too_long_to_write_are_overflow(tmp_path, argv, doc):
    # str() refuses ints of more than 4300 digits; the radius, the
    # hyperplanes and every witness are checked before the first byte
    if doc is not None:
        (tmp_path / "arr.json").write_text(json.dumps(doc))
        argv = argv + ["--in", str(tmp_path / "arr.json")]
    start = time.perf_counter()
    proc = run(*argv, timeout=30)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("floparr: ")
    assert "Traceback" not in proc.stderr


def test_exit_code_unknown_chamber():
    proc = run("atoms", "A2:J={}", "--from", "0", "--to", "77")
    assert proc.returncode == 5


def test_exit_code_not_rank_two():
    assert run("plot", "A3:J={}").returncode == 6


def test_errors_print_to_stderr():
    proc = run("build", "Q9:J={}")
    assert proc.stdout == ""
    assert proc.stderr.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "D4:J={0,2}", "--window", "3/2"),
        ("chambers", "A2:J={}", "--window", "7/2"),
        ("pi1", "A3:J={}"),
        ("search-figure", "--lines", "6"),
    ],
    ids=" ".join,
)
def test_output_independent_of_hash_seed(argv):
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(CLI + list(argv), capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# the floparr modules each command runs; the others stay lazy and uncompiled
BUILD = {"floparr", "floparr.cli", "floparr.errors", "floparr.arrangement", "floparr.dynkin"}
ENUMERATE = BUILD | {"floparr.chambers", "floparr.linear"}
PI1 = ENUMERATE | {"floparr.galleries", "floparr.pi1"}


def test_import_footprint(tmp_path):
    # each command runs only the floparr modules it uses; a lazy submodule
    # is a subclass of ModuleType until its first attribute access, and
    # type() makes none.  The records are namedtuples and --in/--rep are
    # read with open(), so no run loads the stdlib modules below; -S keeps
    # a site .pth file from preloading one
    build = {"floparr", "floparr.cli", "floparr.errors", "floparr.arrangement", "floparr.dynkin"}
    enumerate_ = build | {"floparr.chambers", "floparr.linear"}
    pi1 = enumerate_ | {"floparr.galleries", "floparr.pi1"}
    footprints = [
        ((), {"floparr", "floparr.cli", "floparr.errors"}),
        (("build", "A2:J={}"), build),
        (("search-figure", "--lines", "3", "--max-rank", "4"), build),
        (("chambers", "A2:J={}"), enumerate_),
        (("pi1", "A2:J={}"), pi1),
        (("check", "A3:J={}", "--rep", _a3_rep(tmp_path)), pi1 | {"floparr.perms"}),
    ]
    code = (
        "import sys, types, floparr.cli\n"
        "code = floparr.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print()\n"
        "print(*sorted(n for n, m in sys.modules.items() if n.split('.')[0] == 'floparr' and type(m) is types.ModuleType))\n"
        "print(*[m for m in ('dataclasses', 'inspect', 'pathlib', 'typing') if m in sys.modules])\n"
        "sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(errors.__file__)))
    for argv, loaded in footprints:
        proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        *_, modules, stdlib = proc.stdout.split("\n")[:-1]
        assert set(modules.split()) == loaded, argv
        assert stdlib.split() == [], argv


def test_package_exports_are_the_submodules_objects():
    assert floparr.__all__
    for name in floparr.__all__:
        home = sys.modules[f"floparr.{floparr._HOME[name]}"]
        assert getattr(floparr, name) is getattr(home, name), name
    assert floparr.enumerate_chambers is floparr.chambers.enumerate_chambers
    star = {}
    exec("from floparr import *", star)
    assert set(star) - {"__builtins__"} == set(floparr.__all__)
    assert all(star[name] is getattr(floparr, name) for name in floparr.__all__)
    assert set(floparr.__all__) <= set(dir(floparr))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        floparr.no_such_name
