import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from floparr import errors
from floparr.cli import main

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


def test_chambers_counts():
    doc = json.loads(run("chambers", "A2:J={}", check=True).stdout)
    assert doc["count"] == 6
    assert doc["boundary_count"] == 0
    assert len(doc["edges"]) == 12


def test_chambers_deterministic():
    a = run("chambers", "A2:J={}", "--window", "3/2", check=True).stdout
    b = run("chambers", "A2:J={}", "--window", "3/2", check=True).stdout
    assert a == b


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
    "argv", [["pi1", "A2:J={}", "--cap", "-1"], ["atoms", "A2:J={}", "--from", "0", "--to", "5", "--cap", "-3"]]
)
def test_negative_cap_rejected(argv):
    # a negative cap used to exit 4 with "more than -1 atoms from 0 to 0"
    proc = run(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "cap must be at least 0" in proc.stderr
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
    # all 4152 relations go through the prover; its rewrite rules are
    # built once per check, not once per relation
    proc = run("check", "A3:J={}", "--rep", _a3_rep(tmp_path), "--depth", "0", timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["relations"], doc["ok"], doc["rewrite_depth"]) == (4152, True, 0)
    assert doc["rewrite_proven"] == [False] * 4152


def test_check_uncapped_depth_one(tmp_path):
    # all 4152 relations through the prover at depth 1, where it matches
    # each word against the 2688 stored atoms and inverses of 336 groups;
    # 48 s before rules were indexed by first letter, so the timeout
    # catches a return to the full scan
    proc = run("check", "A3:J={}", "--rep", _a3_rep(tmp_path), "--depth", "1", timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["relations"], doc["ok"], doc["rewrite_depth"]) == (4152, True, 1)
    # verdicts and bytes as computed before the index
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
    # the count is summed over the atom groups, apart from the streamed listing
    doc = json.loads(run("pi1", *argv, check=True).stdout)
    assert doc["relation_count"] == len(doc["relations"]) > 0


def test_pi1_memory_peak(tmp_path):
    # 95444 relations; traced peak about 9 MB when the entries are spliced
    # from the shared atom texts, about 28 MB with one dict per relation
    target = tmp_path / "pi1.json"
    tracemalloc.start()
    try:
        assert main(["pi1", "D4:J={0,2}", "--window", "3/2", "--out", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size == 56123754
    assert peak < 16 * 10**6


def test_pi1_failure_writes_nothing():
    # generators overflow at --cap 1; the relations are never emitted in part
    proc = run("pi1", "A3:J={}", "--cap", "1")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("floparr: ")


def test_closed_stdout_is_quiet():
    # the reader goes away before any output, as in `floparr ... | head -c 0`
    proc = subprocess.Popen(
        CLI + ["chambers", "A4:J={}"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=os.environ.copy()
    )
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
    assert run("build", "A2:J={}", "--window", "nope").returncode == 2


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
        # 80,001 lines build at once; Buck's bound stops the enumeration
        ("1e4", "up to 3200120002 chambers by Buck's bound, more than 10000000"),
    ],
    ids=["1e400", "1e9", "1e4"],
)
def test_exit_code_oversize_window(radius, message):
    # the translates and the chambers are counted before any is built, so this is quick
    proc = run("chambers", "A2:J={}", "--window", radius, timeout=30)
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


def test_import_footprint():
    # the records are namedtuples and --in/--rep are read with open(), so a
    # run loads none of these; -S keeps a site .pth file from preloading one
    src = os.path.dirname(os.path.dirname(errors.__file__))
    code = "import floparr.cli, sys; print(*[m for m in ('dataclasses', 'inspect', 'pathlib', 'typing') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
