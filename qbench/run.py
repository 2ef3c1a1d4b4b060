"""littleq benchmark: end-to-end command timings and an outside-in layer trace.

Run from the repository root:

    python3 qbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``): ``deep`` and ``type1`` run each command cold in
a fresh interpreter; ``sweep`` runs 24 seeded light points per session in one
long-lived interpreter.  Load comes from this single process, one worker
interpreter at a time (closed loop, one client).

``--trace 0`` makes every distinct pass of the workload (two sessions of
different points in ``sweep``), then goes on through them in turn until
``--seconds`` are used up, and reports the end-to-end metrics; every timed
call is drift-corrected by the reference kernel (``refkernel.py``).
``--trace 1`` runs one untraced and one traced pass plus each verification
suite on its own, and reports the per-layer metrics.  Every operation is checked against ``refs.json``.  The last line
of stdout is the JSON result; the full run record goes to ``qbench/records``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import judge
from metrics import PER_LAYER, SUITES
from refkernel import NOMINAL_REF_S, speed_factor
from workloads import COLD, COMMANDS, WORKLOADS, workload_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = HERE / "records"
SETUP_SAMPLES = 5
# a long-lived session runs a kernel window after every 2 points
POINTS_PER_WINDOW = 2
WORKER_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(job: dict) -> dict:
    """Run one job in a fresh worker interpreter and wait for it to end."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out after %d s" % WORKER_TIMEOUT_S) from exc
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout)


def fix(sample: dict) -> float:
    """A sample's wall time, drift-corrected by the windows around it."""
    return sample["wall"] * speed_factor(sample["ref"])


def all_samples(workers: list[dict]) -> list[dict]:
    return [s for w in workers for s in w["samples"]]


def summary(values: list[float], calls: list[float], unit: str) -> dict:
    """Median of ``values``, and over the individual ``calls`` their count
    and the highest percentile with at least ten calls beyond it."""
    ordered = sorted(calls)
    n = len(ordered)
    tail = None
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": ordered[min(n - 1, int(n * p / 100))]}
            break
    return {"value": statistics.median(values), "unit": unit, "samples": n, "tail": tail}


# -- one pass ------------------------------------------------------------------


def run_pass(workload: str, points: list[list[str]], trace: bool) -> list[dict]:
    """All four commands at every point; one result per worker, each sample
    tagged with its command line."""
    calls = [[command, *argv] for argv in points for command in COMMANDS]
    if workload in COLD:
        workers = [spawn({"kind": "calls", "groups": [[c]], "trace": trace}) for c in calls]
    else:
        size = POINTS_PER_WINDOW * len(COMMANDS)
        groups = [calls[i:i + size] for i in range(0, len(calls), size)]
        workers = [spawn({"kind": "calls", "groups": groups, "trace": trace})]
    for sample, call in zip(all_samples(workers), calls, strict=True):
        sample["argv"] = call
    return workers


class Ledger:
    """Operations attempted, failed and the failures' replayable commands.

    An operation is one command at one point.  Every execution is checked,
    but ``attempted`` and ``failed`` count each operation once (failed if any
    of its executions failed), so they depend on the seed alone and not on
    how many passes fit in the time.  ``failures`` keeps every failed
    execution."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.executions = 0
        self.outcomes: dict[tuple[str, ...], bool] = {}
        self.failures: list[dict] = []

    def check(self, workers: list[dict]) -> None:
        for worker in workers:
            for sample in worker["samples"]:
                command, *argv = sample["argv"]
                key = " ".join(argv)
                if key not in self.refs:
                    raise BenchError("no reference for point %r; rerun record_refs.py" % key)
                self.executions += 1
                failure = judge(command, sample, self.refs[key][command])
                sample["ok"] = failure is None
                op = tuple(sample["argv"])
                self.outcomes[op] = self.outcomes.get(op, True) and sample["ok"]
                if failure is not None:
                    kind, detail = failure
                    self.failures.append({
                        "kind": kind, "detail": detail, "where": sample.get("where"),
                        "replay": "littleq " + " ".join(sample["argv"])})

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.outcomes.values())

    @property
    def correct(self) -> bool:
        return not any(f["kind"] == "wrong" for f in self.failures)


# -- end-to-end run --------------------------------------------------------------


def setup_workers(points) -> list[dict]:
    lines = [[command, *argv] for argv in points for command in COMMANDS]
    return [spawn({"kind": "setup", "lines": lines}) for _ in range(SETUP_SAMPLES)]


def end_to_end(workload: str, distinct: list, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Every distinct pass at least once, then on in turn until ``seconds``
    are used up."""
    setup = setup_workers(distinct[0])
    passes = []
    start = time.perf_counter()
    while len(passes) < len(distinct) or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, distinct[len(passes) % len(distinct)], trace=False))
    for workers in passes:
        ledger.check(workers)
    setups = all_samples(setup)

    # a failed operation counts in ok_ratio, not as a fast call; a pass with
    # several points reports the mean call of each command
    pass_means = {c: [] for c in COMMANDS}
    calls = {c: [] for c in COMMANDS}
    totals = []
    for workers in passes:
        samples = all_samples(workers)
        for command in COMMANDS:
            mine = [s for s in samples if s["argv"][0] == command]
            good = [fix(s) for s in mine if s["ok"]] or [fix(s) for s in mine]
            pass_means[command].append(statistics.fmean(good))
            calls[command].extend(mine)
        totals.append(sum(fix(s) for s in samples))
    metrics, record = {}, {}
    for command in COMMANDS:
        name = command + "_s"
        metrics[name] = summary(pass_means[command], [fix(s) for s in calls[command]], "s")
        record[name] = {"raw_wall": [s["wall"] for s in calls[command]],
                        "ref": [s["ref"] for s in calls[command]]}
    metrics["session_s"] = summary(totals, totals, "s")
    record["session_s"] = {"raw_wall": [sum(s["wall"] for s in all_samples(workers))
                                        for workers in passes]}
    setup_s = [fix(s) for s in setups]
    metrics["setup_s"] = summary(setup_s, setup_s, "s")
    record["setup_s"] = {"raw_wall": [s["wall"] for s in setups],
                         "ref": [s["ref"] for s in setups]}
    rss_kb = max(w["rss_kb"] for workers in passes for w in workers)
    metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
    metrics["ok_ratio"] = {"value": (ledger.attempted - ledger.failed) / ledger.attempted,
                           "unit": "ratio"}
    record["passes"] = len(passes)
    record["points"] = distinct
    record["mpmath"] = passes[0][0]["mpmath"]
    return metrics, record


# -- traced run ----------------------------------------------------------------


def _merge_groups(workers: list[dict]) -> dict:
    """Sum per-group counters over workers; times are drift-corrected by the
    mean of each worker's kernel windows."""
    merged: dict[str, dict] = {}
    for worker in workers:
        factor = speed_factor(worker["windows"])
        for group, stats in worker["groups"].items():
            into = merged.setdefault(group, {})
            for key, value in stats.items():
                if key.endswith("_s"):
                    value *= factor
                if key in ("max_size", "max_coeff_bits"):
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + value
    return merged


def per_layer(workload: str, points, ledger: Ledger, spans_path: Path) -> tuple[dict, dict]:
    plain = run_pass(workload, points, trace=False)
    traced = run_pass(workload, points, trace=True)
    ledger.check(plain)
    ledger.check(traced)
    groups = _merge_groups(traced)

    def stat(group, key):
        return groups.get(group, {}).get(key, 0)

    values = {}
    for g in ("mul", "addsub", "divide_exact", "eval_int", "det_laurent"):
        values["exact.%s.calls" % g] = stat("exact." + g, "calls")
        values["exact.%s.busy_s" % g] = stat("exact." + g, "busy_s")
    values["exact.det_laurent.max_size"] = stat("exact.det_laurent", "max_size")
    values["exact.max_coeff_bits"] = stat("exact", "max_coeff_bits")
    for name in ("multi_indexed_poly_y", "typeI_eigen_numerator"):
        values["darboux.%s.calls" % name] = stat("darboux." + name, "calls")
        values["darboux.%s.self_s" % name] = stat("darboux." + name, "self_s")
    values["darboux.denominator_poly_y.self_s"] = stat("darboux.denominator_poly_y", "self_s")
    values["darboux.residual_checks.busy_s"] = stat("darboux.residual_checks", "busy_s")
    for name in ("base.groundstate_sq", "base.eigenpoly_y", "virtual.virtual_poly_y"):
        values[name + ".calls"] = stat(name, "calls")
        values[name + ".busy_s"] = stat(name, "busy_s")
    values["verify.ortho.pair_sums"] = stat("verify.ortho", "pair_sums")
    values["verify.ortho.terms"] = stat("verify.ortho", "terms")
    values["verify.ortho.busy_s"] = stat("verify.ortho", "busy_s")
    root_calls = stat("verify.zeros", "calls")
    values["verify.zeros.root_calls"] = root_calls
    values["verify.zeros.distinct_levels"] = stat("verify.zeros", "distinct_levels")
    values["verify.zeros.useful_ratio"] = (
        values["verify.zeros.distinct_levels"] / root_calls if root_calls else 1.0)
    values["verify.zeros.polyroots_s"] = stat("verify.zeros.polyroots", "busy_s")

    record = {"suites": {}}
    for suite in SUITES:
        samples = spawn({"kind": "suites", "points": points, "suite": suite})["samples"]
        values["verify.suite.%s_s" % suite] = sum(fix(s) for s in samples)
        record["suites"][suite] = {"raw_wall": [s["wall"] for s in samples],
                                   "ref": [s["ref"] for s in samples],
                                   "errors": [s["error"] for s in samples if "error" in s]}

    caches = [w["caches"] for w in traced]
    lookups = sum(c["hits"] + c["misses"] for c in caches)
    values["caches.hit_ratio"] = sum(c["hits"] for c in caches) / lookups if lookups else 0.0
    values["caches.entries"] = max(c["entries"] for c in caches)
    for command in COMMANDS:
        values["cli.%s.self_s" % command] = stat("cli." + command, "self_s")
    samples = all_samples(traced)
    values["cli.output_bytes"] = sum(len(s.get("stdout", "")) for s in samples)
    checks = failed_checks = 0
    for s in samples:
        if s["argv"][0] == "verify" and s.get("code") in (0, 1):
            report = json.loads(s["stdout"])
            checks += len(report["checks"])
            failed_checks += sum(c["status"] == "fail" for c in report["checks"])
    values["verify.checks"] = checks
    values["verify.checks_failed"] = failed_checks
    plain_s = sum(fix(s) for s in all_samples(plain))
    traced_s = sum(fix(s) for s in samples)
    values["trace.overhead_s"] = traced_s - plain_s

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, *_ in PER_LAYER}
    record["mpmath"] = plain[0]["mpmath"]
    record["points"] = points
    record["untraced_pass_s"] = plain_s
    record["traced_pass_s"] = traced_s
    record["moves"] = {name: {"moves": moves, "on": on}
                       for name, _, _, moves, on in PER_LAYER}
    write_spans(traced, spans_path)
    record["spans"] = str(spans_path.relative_to(ROOT))
    return metrics, record


# -- run record ----------------------------------------------------------------

def write_spans(workers: list[dict], path: Path) -> None:
    """One line per span: worker index, group, start, end, parent span index."""
    with path.open("w") as out:
        for index, worker in enumerate(workers):
            for group, start, end, parent in worker["spans"]:
                out.write(json.dumps([index, group, start, end, parent]) + "\n")


def source_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():  # a checkout without it is not a repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "src_files": len(files)}


def metadata(mpmath_info: dict) -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath_info,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "nominal_ref_s": NOMINAL_REF_S,
        **source_facts(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="littleq benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    try:
        if not (SRC / "littleq" / "cli.py").is_file():
            raise BenchError("littleq sources not found under %s" % SRC)
        refs_file = json.loads((HERE / "refs.json").read_text())
        passes = workload_passes(args.workload, args.seed, refs_file["sweep_pool"])
        ledger = Ledger(refs_file["refs"])
        RECORDS.mkdir(exist_ok=True)
        if args.trace:
            metrics, detail = per_layer(args.workload, passes[0], ledger,
                                        RECORDS / (stem + "-spans.jsonl"))
        else:
            metrics, detail = end_to_end(args.workload, passes, args.seconds, ledger)
        meta = metadata(detail.pop("mpmath"))
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    record = {"run": vars(args), "meta": meta, "points": detail.pop("points"),
              "result": result, "executions": ledger.executions,
              "metrics": metrics, "detail": detail,
              "failures": ledger.failures}
    path = RECORDS / (stem + ".json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for failure in ledger.failures:
        print("FAILED (%s) %s" % (failure["kind"], failure["replay"]))
    print("record: %s" % path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
