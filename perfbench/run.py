"""End-to-end benchmark of the floparr command line.

    python3 perfbench/run.py --workload central --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each workload is a fixed list of CLI
invocations (workloads.py), run as a closed loop with one client: every
invocation is a fresh Python subprocess that runs ``floparr.cli`` as
``__main__`` from the checkout's ``src``, and the next one starts only
after the previous one has exited and its stdout has been drained.  A pass runs every
invocation once.  Passes repeat while the next one is expected to end
within ``--seconds`` (at least MIN_PASSES of them), and each timing is
the median over passes.  Every output is checked (checks.py); a wrong
exit code or output counts as a failed invocation.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` untraced passes alternate with
traced ones, in which each invocation runs ``floparr.cli.main(argv)`` in
process under tracer.py, and the last line holds the per-layer metrics.
The lines before it describe the machine, each invocation and each
metric with its unit, fail_ratio included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # inputs, caches and spans of a run

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, case_key, expand, write_inputs  # noqa: E402

# ``python -m floparr.cli`` plus an atexit hook that writes the child's
# own peak RSS (VmHWM) to stderr.  ru_maxrss from wait4 cannot be used:
# Linux charges a child the parent's RSS high-water mark at exec, so it
# would report the benchmark's memory rather than floparr's.
CLI = [
    sys.executable,
    "-c",
    "import atexit, runpy, sys\n"
    "def peak():\n"
    "    with open('/proc/self/status') as f:\n"
    "        sys.stderr.write(next(l for l in f if l.startswith('VmHWM:')))\n"
    "atexit.register(peak)\n"
    "runpy.run_module('floparr.cli', run_name='__main__', alter_sys=True)\n",
]
IMPORT_ONLY = [sys.executable, "-c", "import floparr.cli"]
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2  # two traced passes, so that counts can be compared
SETUP_REPEATS = 11
STOP_STARTING_S = 120  # no pass starts later than this into the run
HARD_LIMIT_S = 170  # a child still running then is killed and counted failed


@dataclass
class Result:
    case: tuple
    wall: float
    cpu: float
    rss_kb: int | None
    out_bytes: int
    sha256: str
    error: str | None


def run_child(cmd, env, deadline) -> tuple[float, float, int, bytes, str]:
    """Run cmd to completion while draining its stdout.

    Returns wall time, child CPU time, exit code, stdout and the tail of
    stderr.  The child is killed at ``deadline`` (a perf_counter value).
    """
    with tempfile.TemporaryFile(dir=SCRATCH) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        chunks, status = [], None
        try:
            while chunk := proc.stdout.read(1 << 20):
                chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            proc.stdout.close()
            if status is None:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-400:].decode("utf-8", "replace")
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode, b"".join(chunks), tail


def split_peak(stderr_tail: str) -> tuple[int | None, str]:
    """The VmHWM (KiB) that CLI children end stderr with, and the rest of stderr."""
    lines = stderr_tail.strip().splitlines()
    if lines and lines[-1].startswith("VmHWM:"):
        return int(lines[-1].split()[1]), "\n".join(lines[:-1])
    return None, "\n".join(lines)


class Bench:
    """One workload's invocations, generated inputs and expected outputs."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.name = workload
        self.cases = WORKLOADS[workload]
        self.scratch = scratch
        self.began = time.perf_counter()
        self.pins = json.loads((HERE / "pins.json").read_text())
        self.paths, tables = write_inputs(scratch, seed, self.pins["a3_edges"])
        self.context = self._expectations(tables)

    def run(self, cmd) -> tuple:
        """One child, with a fresh empty FLOPARR_CACHE of its own."""
        cache = tempfile.mkdtemp(dir=self.scratch)
        try:
            env = dict(os.environ, PYTHONPATH=str(SRC), FLOPARR_CACHE=cache)
            return run_child(cmd, env, self.began + HARD_LIMIT_S)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def invoke(self, case, prefix) -> Result:
        wall, cpu, rc, out, err = self.run([*prefix, *expand(case, self.paths)])
        rss, err = split_peak(err)
        try:
            error = checks.verify(case, rc, out, self.pins["cases"].get(case_key(case)), self.context)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
        if error and err:
            error += f"; stderr: {err.splitlines()[-1]}"
        return Result(case, wall, cpu, rss, len(out), hashlib.sha256(out).hexdigest(), error)

    def _expectations(self, tables) -> dict:
        """Arrangements, Zaslavsky counts and check verdicts, all untimed."""
        sys.path.insert(0, str(SRC))
        import floparr

        context = {"arrangements": {}, "zaslavsky": {}, "verdicts": {}}
        for case in self.cases:
            if case[0] == "chambers":
                _, _, rc, out, err = self.run([*CLI, "build", *expand(case[1:], self.paths)])
                if rc != 0:
                    raise RuntimeError(f"build for {case_key(case)} failed: {err}")
                arrangement = json.loads(out)
                context["arrangements"][case] = arrangement
                if arrangement["kind"] == "central":
                    arr = floparr.arrangement_from_json(arrangement)
                    context["zaslavsky"][case] = floparr.region_count_zaslavsky(arr)
            elif case[0] == "check":
                table = tables[case[case.index("--rep") + 1].strip("{}")]
                cap = int(case[case.index("--length-cap") + 1]) if "--length-cap" in case else None
                classes = checks.atom_classes(self.pins["a3_edges"], cap)
                context["verdicts"][case] = checks.table_holds(table, classes)
        return context

    def setup_seconds(self) -> float:
        """Median wall time of a child that only imports floparr.cli."""
        self.run(IMPORT_ONLY)  # compile bytecode once, as an installed package has it
        times = []
        for _ in range(SETUP_REPEATS):
            wall, _, rc, _, err = self.run(IMPORT_ONLY)
            if rc != 0:
                raise RuntimeError(f"import floparr.cli failed: {err}")
            times.append(wall)
        return statistics.median(times)

    def one_pass(self, prefix) -> list[Result]:
        return [self.invoke(case, prefix) for case in self.cases]

    def repeat(self, seconds: float, minimum: int, body) -> list:
        """Call body while the next call should end within ``seconds``, at least ``minimum`` times."""
        start, done, last = time.perf_counter(), [], 0.0
        while len(done) < minimum or time.perf_counter() - start + last <= seconds:
            if done and time.perf_counter() - self.began > STOP_STARTING_S:
                break
            begun = time.perf_counter()
            done.append(body())
            last = time.perf_counter() - begun
        return done


def pass_wall(results) -> float:
    return sum(r.wall for r in results)


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list, list]:
    setup = bench.setup_seconds()
    passes = bench.repeat(seconds, MIN_PASSES, lambda: bench.one_pass(CLI))
    values = {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_kb or 0 for r in p) for p in passes) / 1024,
        "setup_s": setup,
    }
    return values, passes, []


def traced(bench: Bench, seconds: float) -> tuple[dict, list, list]:
    spans_file = bench.scratch / "spans.json"
    prefix = [sys.executable, str(HERE / "tracer.py"), str(spans_file)]

    def traced_pass():
        results, spans = [], []
        for case in bench.cases:
            spans_file.unlink(missing_ok=True)
            results.append(bench.invoke(case, prefix))
            spans.append(json.loads(spans_file.read_text()) if spans_file.exists() else {"spans": [], "counts": {}})
        return results, spans

    pairs = bench.repeat(seconds, MIN_TRACED_PAIRS, lambda: (bench.one_pass(CLI), traced_pass()))
    plain = [p for p, _ in pairs]
    traced_passes = [results for _, (results, _) in pairs]
    layers = [tracer.layer_metrics(spans) for _, (_, spans) in pairs]
    values = {}
    for name in set().union(*layers):
        samples = [layer.get(name, 0) for layer in layers]
        if all(isinstance(s, int) for s in samples):
            values[name] = samples[0]
            if len(set(samples)) > 1:
                print(f"# warning: count {name} differs between traced passes: {samples}")
        else:
            values[name] = statistics.median(samples)
    values["trace.wall_s"] = statistics.median(pass_wall(p) for p in traced_passes)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(pass_wall(p) for p in plain)
    values["cli.stdout_bytes"] = sum(r.out_bytes for r in traced_passes[0])
    (SCRATCH / f"spans-{bench.name}.json").write_text(json.dumps(pairs[-1][1][1]))
    return values, plain, traced_passes


def machine() -> str:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, cpu {model}"


def describe(passes, pins) -> None:
    """One line per invocation: medians over passes, output size and hash."""
    for i, first in enumerate(passes[0]):
        runs = [p[i] for p in passes]
        key = case_key(first.case)
        pinned = pins["cases"].get(key, {}).get("stdout_sha256")
        drift = "" if pinned is None else (" as pinned" if first.sha256 == pinned else " differs from pin")
        print(
            f"# {key}: wall {statistics.median(r.wall for r in runs):.4f} s, "
            f"cpu {statistics.median(r.cpu for r in runs):.4f} s, "
            f"rss {max(r.rss_kb or 0 for r in runs) / 1024:.1f} MB, "
            f"stdout {first.out_bytes} B, sha256 {first.sha256[:16]}{drift}"
        )
    print("# pass walls: " + " ".join(f"{pass_wall(p):.3f}" for p in passes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "floparr" / "cli.py").is_file():
        print(f"perfbench: no floparr sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        bench = Bench(args.workload, args.seed, Path(scratch))
        values, plain, traced_passes = (traced if args.trace else end_to_end)(bench, args.seconds)
    results = [r for p in plain + traced_passes for r in p]
    failed = [r for r in results if r.error]
    values["fail_ratio"] = len(failed) / len(results)
    print(f"# machine: {machine()}")
    print(f"# workload {args.workload}, seed {args.seed}, {len(plain)} untraced and {len(traced_passes)} traced passes")
    describe(plain, bench.pins)
    for r in failed:
        print(f"# FAILED {case_key(r.case)}: {r.error}")
    for metric in declared + [{"name": "fail_ratio", "unit": "ratio"}]:
        print(f"{metric['name']} {values.get(metric['name'], 0):.6g} {metric['unit']}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
