import json
import os
import subprocess
import sys

import pytest

from floparr import errors

CLI = [sys.executable, "-m", "floparr.cli"]


def run(*argv, check=False):
    proc = subprocess.run(
        CLI + list(argv), capture_output=True, text=True, env=os.environ.copy()
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
    a = run("build", "A1:J={}", "--affine", "--radius", "5/2", check=True)
    b = run("build", "A1:J={}", "--window", "5/2", check=True)
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
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
    errors.WindowTooSmall: 1,
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


def test_exit_code_unknown_chamber():
    proc = run("atoms", "A2:J={}", "--from", "0", "--to", "77")
    assert proc.returncode == 5


def test_exit_code_not_rank_two():
    assert run("plot", "A3:J={}").returncode == 6


def test_errors_print_to_stderr():
    proc = run("build", "Q9:J={}")
    assert proc.stdout == ""
    assert proc.stderr.strip()
