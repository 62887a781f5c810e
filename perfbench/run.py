"""Benchmark of the spongeheat command-line program.

    python3 perfbench/run.py --workload {closed-form,oracle,export} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a source checkout: every command runs the
checkout's own ``src/`` (``PYTHONPATH=src``), never an installed copy.

A workload is a fixed list of ``spongeheat`` commands (``workloads.py``).
A pass runs the whole list once, one command after another, each in a fresh
interpreter: a closed loop with one client.  The seed sets the order of the
commands within each pass; the program only ever sees the generated argv.
Every command is checked against the expectation pinned in
``expected.json`` (exit code, sha256 of stdout, sha256 of the file it
writes) and its exact counts against the closed forms of
``spongeheat.metrics``; a command that fails any check counts as failed.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time, then passes until ``--seconds`` have elapsed.  ``--trace 1``
alternates an untraced pass with a traced one (each command run under
``tracer.py``) until ``--seconds`` have elapsed, and reports the per-layer
metrics.  ``--smoke`` runs the same kinds of commands with every n <= 2.

Machine and provenance data are printed as ``#`` lines; the last line of
stdout is the JSON result.  The exit code is 0 when every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / workloads.OUT_DIR
EXPECTED = BENCH_DIR / "expected.json"

LAUNCH = "from spongeheat.cli import main; main()"
SETUP = "from spongeheat.cli import build_parser; build_parser()"
#: Set-up samples per pass, spread over the pass so that they see the same
#: machine conditions as the commands.
SETUP_SAMPLES = 8
#: Passes an untraced run makes at least, so that each command's best
#: latency is taken over several passes in different orders.
MIN_PASSES = 3
CLOSED_FORMS = """
import json, sys
from spongeheat import metrics
jobs = [(metrics.ModelKind(model), n) for model, n in json.loads(sys.argv[1])]
print(json.dumps([[str(metrics.model_volume(k, n)), str(metrics.model_surface(k, n))]
                  for k, n in jobs]))
"""
#: Head room kept free above the largest pinned peak of a workload.
MARGIN_MB = 1024

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}

#: Span name -> per-layer metric that collects its self time.  Public
#: functions not named here go to their layer's default below; the two
#: import spans are handled in ``layer_metrics``.
SPAN_METRIC = {
    "analysis.format_paper_precision": "analysis.format_s",
    "analysis.round_half_away": "analysis.format_s",
    "analysis.decimal_string": "analysis.format_s",
    "analysis.emit_csv": "analysis.emit_s",
    "analysis.emit_json": "analysis.emit_s",
    "analysis.find_crossover": "analysis.crossover_s",
    "voxel.build_grid": "voxel.build_s",
    "mesh.write_stl_binary": "mesh.stl_s",
    "mesh.write_obj": "mesh.obj_s",
}
LAYER_METRIC = {
    "cli": "cli.self_s",
    "metrics": "metrics.self_s",
    "analysis": "analysis.rows_s",
    "voxel": "voxel.faces_s",
    "mesh": "mesh.build_s",
}
PER_LAYER = {
    "cli.import_s": "s", "cli.numpy_import_s": "s", "cli.self_s": "s",
    "metrics.self_s": "s", "metrics.calls": "count",
    "analysis.rows_s": "s", "analysis.format_s": "s", "analysis.emit_s": "s",
    "analysis.crossover_s": "s", "analysis.bytes": "bytes",
    "voxel.build_s": "s", "voxel.faces_s": "s", "voxel.peak_mb": "MB",
    "voxel.cells": "count", "voxel.solid_cells": "count",
    "voxel.exposed_faces": "count", "voxel.packed_mb": "MB",
    "mesh.build_s": "s", "mesh.stl_s": "s", "mesh.obj_s": "s", "mesh.peak_mb": "MB",
    "mesh.triangles": "count", "mesh.bytes": "bytes", "mesh.obj_vertices": "count",
    "mesh.obj_dedup": "ratio", "mesh.buffer_mb": "MB",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}
#: Counts that keep the largest value of any command instead of the sum.
MAX_COUNTS = ("voxel.packed_mb", "mesh.buffer_mb", "voxel.peak_mb", "mesh.peak_mb")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def scan_file(path: Path) -> tuple[str, int]:
    """sha256 of a file and its number of OBJ vertex lines, read in chunks
    so that this process stays small (see ``run_command``)."""
    digest = hashlib.sha256()
    vertices = 0
    tail = b"\n"
    with open(path, "rb") as source:
        while chunk := source.read(1 << 20):
            digest.update(chunk)
            data = tail + chunk
            vertices += data.count(b"\nv ")
            tail = data[-2:]
    return digest.hexdigest(), vertices


def run_command(argv: list[str], traced: bool) -> dict:
    """Run one command in a fresh interpreter; return what it did.

    The child's ``ru_maxrss`` also covers the memory it shared with this
    process before ``exec``, so this process imports no numpy and reads
    output files in chunks: it stays well below any command's own peak.
    """
    out = workloads.out_path(argv)
    if out:
        (ROOT / out).unlink(missing_ok=True)
    trace_file = WORK / "trace.json"
    if traced:
        prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_file)]
    else:
        prefix = [sys.executable, "-c", LAUNCH]
    with open(WORK / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(prefix + argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    result = {
        "argv": argv, "wall": wall, "rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode, "stdout": stdout, "stderr": stderr,
        "file_sha256": None, "file_size": None, "obj_vertices": 0, "trace": None,
    }
    if out and (ROOT / out).exists():
        path = ROOT / out
        result["file_size"] = path.stat().st_size
        result["file_sha256"], vertices = scan_file(path)
        if path.suffix == ".obj":
            result["obj_vertices"] = vertices
        path.unlink()
    if traced and trace_file.exists():
        result["trace"] = json.loads(trace_file.read_text())
        trace_file.unlink()
    return result


def model_order(argv: list[str]) -> tuple[str, int] | None:
    if argv[0] not in ("voxel-verify", "mesh"):
        return None
    return argv[argv.index("--model") + 1], int(argv[argv.index("--n") + 1])


def closed_forms(cmds: list[list[str]]) -> dict:
    """Exact volume and surface of every (model, n) the commands use, from
    ``spongeheat.metrics``, evaluated in a child so that this process does
    not import numpy with the package."""
    jobs = sorted({job for job in map(model_order, cmds) if job})
    done = subprocess.run([sys.executable, "-c", CLOSED_FORMS, json.dumps(jobs)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    return {(model, n): (Fraction(v), Fraction(s))
            for (model, n), (v, s) in zip(jobs, json.loads(done.stdout))}


def closed_counts(argv: list[str], forms: dict) -> dict:
    """Exact counts of a voxel or mesh job, from the closed forms."""
    job = model_order(argv)
    if job is None:
        return {}
    volume, surface = forms[job]
    cells = volume * 27**job[1]
    faces = surface * 9**job[1]
    if cells.denominator != 1 or faces.denominator != 1:
        raise ValueError(f"closed forms give no whole counts for {argv}")
    counts = {"voxel.solid_cells": int(cells)}
    if argv[0] == "voxel-verify":
        counts["voxel.exposed_faces"] = int(faces)
    else:
        counts["mesh.triangles"] = 2 * int(faces)
        if argv[argv.index("--format") + 1] == "stl":
            counts["mesh.bytes"] = 84 + 50 * counts["mesh.triangles"]
    return counts


def stdout_counts(argv: list[str], stdout: bytes) -> dict:
    """Exact counts a voxel or mesh job reports on stdout."""
    text = stdout.decode("utf-8", "replace")
    if argv[0] == "voxel-verify":
        n = int(argv[argv.index("--n") + 1])
        volume = re.search(r"^volume : closed \S+  oracle (\S+)", text, re.M)
        surface = re.search(r"^surface: closed \S+  oracle (\S+)", text, re.M)
        if not (volume and surface):
            raise ValueError("no oracle volume/surface on stdout")
        return {"voxel.solid_cells": Fraction(volume[1]) * 27**n,
                "voxel.exposed_faces": Fraction(surface[1]) * 9**n}
    if argv[0] == "mesh":
        wrote = re.search(r"\((\d+) bytes, (\d+) triangles\)", text)
        if not wrote:
            raise ValueError("no byte/triangle count on stdout")
        return {"mesh.bytes": int(wrote[1]), "mesh.triangles": int(wrote[2])}
    return {}


class Checks:
    """Judges command results against the pinned expectations and the
    closed forms, and counts the commands attempted and failed."""

    def __init__(self, cmds: list[list[str]]):
        self.expected = json.loads(EXPECTED.read_text())
        self.forms = closed_forms(cmds)
        self.attempted = 0
        self.failed = 0

    def judge(self, result: dict) -> None:
        self.attempted += 1
        found = problems(result, self.expected.get(workloads.key(result["argv"])), self.forms)
        if found:
            self.failed += 1
            print(f"FAIL {workloads.key(result['argv'])}: {'; '.join(found)}", file=sys.stderr)
            sys.stderr.write(result["stderr"].decode("utf-8", "replace"))


def problems(result: dict, pinned: dict | None, forms: dict) -> list[str]:
    """Every way a command's result differs from its pinned expectation or
    from the closed-form counts; empty when it is correct."""
    argv = result["argv"]
    if pinned is None:
        return ["no pinned expectation"]
    found = []
    if result["exit"] != pinned["exit"]:
        found.append(f"exit {result['exit']}, pinned {pinned['exit']}")
    if hashlib.sha256(result["stdout"]).hexdigest() != pinned["stdout_sha256"]:
        found.append("stdout digest differs")
    if result["file_sha256"] != pinned["file_sha256"]:
        found.append("output file digest differs")
    try:
        closed = closed_counts(argv, forms)
        reported = stdout_counts(argv, result["stdout"])
    except ValueError as exc:
        return found + [str(exc)]
    observed = [("stdout", reported)]
    if result["trace"] is not None:
        observed.append(("trace", {k: result["trace"]["counts"].get(k, 0) for k in closed}))
    for source, counts in observed:
        for name, value in counts.items():
            if name in closed and value != closed[name]:
                found.append(f"{source} {name} = {value}, closed form {closed[name]}")
    if "mesh.bytes" in reported and reported["mesh.bytes"] != result["file_size"]:
        found.append(f"file holds {result['file_size']} bytes, "
                     f"stdout says {reported['mesh.bytes']}")
    return found


def run_pass(cmds: list[list[str]], traced: bool, checks: Checks,
             setup: list | None = None) -> dict:
    """Run every command once, in order; with ``setup`` given, also append
    ``SETUP_SAMPLES`` set-up timings taken between the commands."""
    results = []
    every = -(-len(cmds) // SETUP_SAMPLES)
    for index, argv in enumerate(cmds):
        if setup is not None and index % every == 0:
            setup.append(timed_setup())
        results.append(run_command(argv, traced))
        checks.judge(results[-1])
    return {
        "wall": sum(r["wall"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "results": results,
    }


def layer_metrics(passed: dict) -> dict:
    """Per-layer metrics of one traced pass: self times from the spans,
    counts summed over commands (largest value for sizes and peaks)."""
    values = dict.fromkeys(PER_LAYER, 0)
    attributed = 0.0
    obj_triangles = 0
    for result in passed["results"]:
        trace = result["trace"] or {"spans": [], "counts": {}, "peaks": {}}
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, parent), inner in zip(spans, child_time):
            if name == "cli.import":
                values["cli.import_s"] += end - start
                attributed += end - start
                continue
            if name == "cli.numpy_import":
                values["cli.numpy_import_s"] += end - start
                continue
            layer = name.split(".", 1)[0]
            values[SPAN_METRIC.get(name, LAYER_METRIC[layer])] += end - start - inner
            attributed += end - start - inner
            if layer == "metrics":
                values["metrics.calls"] += 1
        counts = dict(trace["counts"])
        counts["voxel.peak_mb"] = trace["peaks"].get("voxel", 0)
        counts["mesh.peak_mb"] = trace["peaks"].get("mesh", 0)
        counts["mesh.obj_vertices"] = result["obj_vertices"]
        for name, value in counts.items():
            if name in MAX_COUNTS:
                values[name] = max(values[name], value)
            elif name in values:
                values[name] += value
        obj_triangles += counts.get("mesh.obj_triangles", 0)
    if obj_triangles:
        values["mesh.obj_dedup"] = values["mesh.obj_vertices"] / (3 * obj_triangles)
    values["trace.wall_s"] = passed["wall"]
    values["trace.unattributed_s"] = passed["wall"] - attributed
    return values


def timed_setup() -> float:
    """Seconds for a fresh interpreter to import spongeheat.cli and build
    its parser: what every command pays before it does any work."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - start


def pass_order(cmds: list, seed: int, index: int) -> list:
    order = list(cmds)
    random.Random(f"{seed}/{index}").shuffle(order)
    return order


def end_to_end(cmds, seed, seconds, checks: Checks) -> dict:
    """Set-up samples and passes for ``seconds`` (at least ``MIN_PASSES``).

    Other tenants of the machine only ever slow a command down, and their
    load comes and goes over tens of seconds, so each command's latency is
    its best over the passes; ``wall_s`` sums those and ``cmd_p50_s`` is
    their median.  ``setup_s`` is the median of its samples.
    """
    timed_setup()  # warm-up: byte-compiles src/ in a fresh checkout
    setup, passes = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(pass_order(cmds, seed, len(passes)), False, checks, setup))
    best = {}
    for result in (r for p in passes for r in p["results"]):
        key = workloads.key(result["argv"])
        best[key] = min(best.get(key, result["wall"]), result["wall"])
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best.values()),
        "cmd_p50_s": statistics.median(best.values()),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(cmds, seed, seconds, checks: Checks) -> dict:
    """Untraced and traced passes, alternating, for ``seconds``.  Layer
    values are means over the traced passes, so that the imports, the
    layer self times and ``trace.unattributed_s`` add up to
    ``trace.wall_s``."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        order = pass_order(cmds, seed, len(traced))
        plain.append(run_pass(order, False, checks))
        traced.append(run_pass(order, True, checks))
    layers = [layer_metrics(p) for p in traced]
    values = {name: statistics.mean(v[name] for v in layers) for name in PER_LAYER}
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.mean(p["wall"] for p in plain)
    for result in traced[0]["results"]:
        one = layer_metrics({"results": [result], "wall": result["wall"]})
        stages = {k: round(v, 4) for k, v in one.items() if v and k.endswith("_s")}
        print(f"# stages {workloads.key(result['argv'])}: {json.dumps(stages)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def meminfo_mb() -> dict:
    info = {}
    with open("/proc/meminfo") as source:
        for line in source:
            name, value = line.split(":", 1)
            info[name] = int(value.split()[0]) / 1024
    return info


def provenance(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "spongeheat").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(meminfo_mb()["MemTotal"]), "python": platform.python_version(),
        "numpy": numpy_version, "git_rev": rev, "src_sha256": sources.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's small commands (every n <= 2)")
    args = parser.parse_args()
    if not (SRC / "spongeheat" / "cli.py").is_file():
        print(f"error: no spongeheat sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    cmds = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    checks = Checks(cmds)
    print("# provenance " + json.dumps(provenance(args)))

    need = max(checks.expected.get(workloads.key(c), {}).get("peak_mb", 0) for c in cmds) + MARGIN_MB
    available = meminfo_mb()["MemAvailable"]
    if available < need:
        print(f"error: {available:.0f} MB available, {need:.0f} MB needed "
              f"(largest pinned peak + {MARGIN_MB} MB); refusing to start", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(cmds), "failed": len(cmds),
                          "metrics": {}}))
        return 1

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        measured = measure(cmds, args.seed, args.seconds, checks)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"# fail_ratio {checks.failed / checks.attempted:.6g}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": measured}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
