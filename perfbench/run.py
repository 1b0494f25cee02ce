#!/usr/bin/env python3
"""The liechar benchmark: three workloads through the public API and the
CLI, every output checked, every metric printed by name and unit.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads (see README.md for why each exists):
  endoscopy-atlas   cold CLI batch: endoscopy enumerate / estimate / from-kappa
  character-sweep   cold CLI batch: springer verify --all, chartable dixon and classical
  query-serve       one long-lived service, closed loop, one client

Each batch and the service run in a fresh interpreter (perfbench/child.py),
so liechar's in-process caches start empty. --seconds sets the amount of
work from nominal rates measured on the reference machine; the work is the
same on every run with the same arguments, however fast the program is.
End-to-end times are in reference seconds: wall times scaled by a
calibration loop run between operations (see scaled() and README.md).
With --trace 0 the last line carries the end-to-end metrics; with --trace 1
a traced and an untraced pass run and the last line carries the per-layer
metrics. Records of each run go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import COUNTERS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

DEADLINE_S = 170.0
# seconds one cold batch takes on the reference machine (README.md)
NOMINAL_BATCH_S = {"endoscopy-atlas": 10.0, "character-sweep": 10.0}
# requests per second of --seconds in the query stream, in whole rounds
SERVE_RATE = 300
BATCH_SETUP_SAMPLES = 9
SERVE_SETUP_SAMPLES = 3
# seconds child.calibrate() takes on the reference machine
CAL_NOMINAL_S = 0.014

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "ops_per_s": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

_CALLS = [
    "cli.main", "root_datum.dual_datum", "root_datum.extended_dynkin",
    "root_datum.sub_datum_from_pairs", "endoscopy.center_alcove_action",
    "endoscopy.pseudo_levi", "endoscopy.fold_to_alcove",
    "exact_math.smith_normal_form", "finite_lie.is_strongly_regular",
    "finite_lie.adjoint_orbit_of", "kernels.orbit_of", "kernels.pair_histogram",
    "dl_spectra.dl_character", "dl_spectra.springer_check",
    "dl_spectra.dl_jordan_reduction_check", "padic.hilbert_symbol",
]
_SELF = [
    "cli.main", "root_datum.build_root_datum", "root_datum.extended_dynkin",
    "root_datum.highest_root", "root_datum.cartan_type",
    "root_datum.sub_datum_from_pairs", "endoscopy.enumerate_split_elliptic",
    "endoscopy.center_alcove_action", "endoscopy.pseudo_levi",
    "endoscopy.fold_to_alcove", "endoscopy.endoscopic_from_kappa",
    "endoscopy.estimate_diagram_check", "exact_math.smith_normal_form",
    "exact_math.cokernel_group", "exact_math.abelian_subgroup_type",
    "finite_lie.build_finite_group", "finite_lie.tori_and_regularity",
    "finite_lie.is_strongly_regular", "finite_lie.adjoint_orbit_of",
    "kernels.conjugacy_partition", "kernels.orbit_of", "kernels.pair_histogram",
    "dl_spectra.conjugacy_classes", "dl_spectra.character_table_dixon",
    "dl_spectra.classical_table_oracle", "dl_spectra.dl_character",
    "dl_spectra.springer_check", "dl_spectra.dl_jordan_reduction_check",
    "galois_tori.component_group_pi0", "galois_tori.tn_pairing",
    "padic.topological_jordan", "padic.hilbert_symbol",
]
PER_LAYER = {f"{n}.calls": "count" for n in _CALLS}
PER_LAYER.update({f"{n}.self_s": "s" for n in _SELF})
PER_LAYER.update({name: "count" for name in [*COUNTERS, "kernels.points"]})
PER_LAYER.update({f"serve.{k}.p50_ms": "ms" for k in workloads.SERVE_KINDS})
PER_LAYER.update({
    "serve.first_touch.p50_ms": "ms",
    "serve.repeat.p50_ms": "ms",
    "serve.first_touch.count": "count",
    "serve.requests.count": "count",
    "trace.overhead_s": "s",
})
assert all(n in SPANS for n in _CALLS + _SELF)


def scaled(raw, *cals):
    """raw wall seconds in reference seconds: scaled by how much faster or
    slower the calibration loop ran around the measurement than its nominal
    time. On a shared machine whose speed drifts over minutes this keeps
    runs comparable; a slower program still reads slower."""
    return raw * CAL_NOMINAL_S * len(cals) / sum(cals)


class RunError(Exception):
    """The run cannot measure: a child crashed or the deadline passed."""


class Runner:
    def __init__(self, workload, seed, trace):
        self.stem = f"{workload}-seed{seed}-trace{trace}"
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "LIECHAR_WORKERS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.backend = None
        self.errors = []  # failed output checks
        self.failures = []  # operations that raised or exited non-zero
        self.n_children = 0
        self.calibrations = []

    def child(self, mode, trace=False, **job):
        """Start one fresh interpreter, wait for it, return its result with
        setup_s (spawn to first timed operation) filled in."""
        self.n_children += 1
        tag = f"{self.stem}-{self.n_children}"
        job_path, result_path = OUT / f"{tag}.job.json", OUT / f"{tag}.result.json"
        job.update(mode=mode, trace=trace, spans_path=str(OUT / f"{tag}.spans.jsonl") if trace else None)
        job_path.write_text(json.dumps(job))
        if result_path.exists():
            result_path.unlink()
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RunError("deadline passed before the run finished")
        spawned = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
                env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"{mode} child did not finish within the deadline") from None
        if proc.returncode != 0:
            raise RunError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = scaled(result["ready_wall"] - spawned, result["cal_s"][0])
        self.backend = result["backend"]
        self.calibrations.extend(result["cal_s"])
        return result

    def check(self, fn, *args):
        try:
            return fn(*args)
        except (checks.CheckError, KeyError, TypeError, ValueError) as e:
            self.errors.append(f"{fn.__name__}: {type(e).__name__}: {e}")
            return None


# ---------------------------------------------------------------------------
# batch workloads


def check_batch(runner, workload, cmds, ops):
    """Checks every successful call; returns the number that failed."""
    failed = 0
    tables = {}
    for (argv, meta), op in zip(cmds, ops):
        if op["rc"] != 0:
            failed += 1
            runner.failures.append(f"{' '.join(argv)} exited {op['rc']}: {op['error'] or ''}".strip())
            continue
        out = op["stdout"]
        if workload == "endoscopy-atlas":
            doc = runner.check(json.loads, out)
            if doc is None:
                continue
            s, n, iso = meta["series"], meta["rank"], meta["isogeny"]
            if meta["cmd"] == "enumerate":
                runner.check(checks.check_enumerate, doc, s, n)
            elif meta["cmd"] == "estimate":
                runner.check(checks.check_estimate, doc, s, n)
            else:
                runner.check(checks.check_from_kappa, doc, s, n, iso, meta["kappa"], meta["vertex"])
        elif meta["cmd"] == "springer":
            doc = runner.check(json.loads, out)
            if doc is not None:
                runner.check(checks.check_springer, doc, meta["group"], meta["q"])
        else:
            rows = runner.check(checks.check_chartable, out, meta["format"], meta["group"], meta["q"])
            tables.setdefault((meta["group"], meta["q"]), {})[meta["method"]] = rows
    for pair in tables.values():
        if len(pair) == 2 and None not in pair.values():
            runner.check(checks.check_tables_agree, pair["dixon"], pair["classical"])
    return failed


def run_batch(runner, workload, seed, seconds, trace, tiny):
    make = workloads.atlas_commands if workload == "endoscopy-atlas" else workloads.sweep_commands
    cmds = make(seed, tiny)
    argvs = [argv for argv, _ in cmds]
    attempted = failed = 0
    if trace:
        plain = runner.child("batch", commands=argvs)
        traced = runner.child("batch", trace=True, commands=argvs)
        for res in (plain, traced):
            attempted += len(res["ops"])
            failed += check_batch(runner, workload, cmds, res["ops"])
        layer = dict(traced["trace"])
        layer["trace.overhead_s"] = traced["work_s"] - plain["work_s"]
        return attempted, failed, layer
    rounds = 1 if tiny else max(1, int(seconds // NOMINAL_BATCH_S[workload]))
    setups = [runner.child("import")["setup_s"] for _ in range(max(0, BATCH_SETUP_SAMPLES - rounds))]
    batches = []
    for _ in range(rounds):
        res = runner.child("batch", commands=argvs)
        attempted += len(res["ops"])
        failed += check_batch(runner, workload, cmds, res["ops"])
        setups.append(res["setup_s"])
        batches.append(res)
    # each call's latency, in reference seconds, is its median across the
    # rounds, so that a burst of machine noise in one round does not count;
    # the batch time is their sum
    rounds_scaled = [
        [scaled(op["latency_s"], res["cal_s"][i], res["cal_s"][i + 1]) for i, op in enumerate(res["ops"])]
        for res in batches
    ]
    per_call = [statistics.median(ts) for ts in zip(*rounds_scaled)]
    solve = sum(per_call)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": solve,
        "ops_per_s": len(cmds) / solve,
        "latency_p50_ms": 1e3 * statistics.median(per_call),
        "latency_p99_ms": 1e3 * p99(per_call),
        "peak_rss_mb": statistics.median(res["peak_rss_kb"] for res in batches) / 1024,
    }
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# query-serve


def p99(values):
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def check_serve(runner, stream, ops):
    failed = 0
    for (req, meta), op in zip(stream, ops):
        if op["error"] is not None:
            failed += 1
            runner.failures.append(f"{req['kind']} failed: {op['error']}")
            continue
        resp = json.loads(op["response"])
        kind = req["kind"]
        if kind == "springer_check":
            runner.check(checks.check_cell_pass, resp, meta["group"])
        elif kind == "dl_jordan_reduction_check":
            runner.check(checks.check_cell_pass, resp)
        elif kind == "dl_value":
            runner.check(checks.check_dl_value, resp, meta["group"], meta["q"], meta["torus"])
        elif kind == "endoscopic_from_kappa":
            runner.check(checks.check_from_kappa, resp, req["series"], req["rank"], req["isogeny"],
                         req["kappa"], meta["vertex"])
        elif kind == "topological_jordan":
            runner.check(checks.check_topological_jordan, resp, req["p"], req["k"], req["matrix"])
        elif kind == "hilbert":
            runner.check(checks.check_hilbert, resp)
        else:
            runner.check(checks.check_tn_pairing, resp, meta["factors"])
    return failed


def serve_latencies(res, size):
    """Request latencies in reference seconds, each scaled by the
    calibrations around its round."""
    cal = res["cal_s"]
    return [scaled(op["latency_s"], cal[i // size], cal[i // size + 1]) for i, op in enumerate(res["ops"])]


def request_log(stream, latencies):
    """Per-kind and first-touch/repeat medians of an untraced stream. A
    request is a first touch when it is the first of its kind for its
    working-set item (see README.md)."""
    seen = set()
    by_kind = {k: [] for k in workloads.SERVE_KINDS}
    first, repeat = [], []
    for (req, meta), latency in zip(stream, latencies):
        ms = 1e3 * latency
        by_kind[req["kind"]].append(ms)
        key = tuple(meta["key"])
        (repeat if key in seen else first).append(ms)
        seen.add(key)
    log = {f"serve.{k}.p50_ms": statistics.median(v) for k, v in by_kind.items() if v}
    log["serve.first_touch.p50_ms"] = statistics.median(first)
    log["serve.repeat.p50_ms"] = statistics.median(repeat) if repeat else 0.0
    log["serve.first_touch.count"] = len(first)
    log["serve.requests.count"] = len(latencies)
    return log


def run_serve(runner, seed, seconds, trace, tiny):
    size = workloads.serve_round_size(tiny)
    rounds = 2 if tiny else max(1, round(SERVE_RATE * seconds / size))
    stream = workloads.serve_stream(seed, rounds, tiny)
    count = len(stream)
    requests = [req for req, _ in stream]
    spec = workloads.working_set_spec(tiny)
    if trace:
        plain = runner.child("serve", requests=requests, working_set=spec, round_size=size)
        traced = runner.child("serve", trace=True, requests=requests, working_set=spec, round_size=size)
        failed = sum(check_serve(runner, stream, res["ops"]) for res in (plain, traced))
        layer = dict(traced["trace"])
        layer.update(request_log(stream, serve_latencies(plain, size)))
        layer["trace.overhead_s"] = traced["work_s"] - plain["work_s"]
        return 2 * count, failed, layer
    setups = [runner.child("serve", requests=[], working_set=spec, round_size=size)["setup_s"] for _ in range(SERVE_SETUP_SAMPLES - 1)]
    res = runner.child("serve", requests=requests, working_set=spec, round_size=size)
    setups.append(res["setup_s"])
    failed = check_serve(runner, stream, res["ops"])
    latencies = serve_latencies(res, size)
    solve = res["stream_s"] * sum(latencies) / sum(op["latency_s"] for op in res["ops"])
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": solve,
        "ops_per_s": count / solve,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p99_ms": 1e3 * p99(latencies),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    return count, failed, metrics


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=["endoscopy-atlas", "character-sweep", "query-serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="a tiny input set, for testing the benchmark")
    args = ap.parse_args(argv)
    if not (SRC / "liechar" / "__init__.py").is_file():
        print(f"perfbench: no liechar sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.trace)
    try:
        if args.workload == "query-serve":
            attempted, failed, metrics = run_serve(runner, args.seed, args.seconds, args.trace, args.tiny)
        else:
            attempted, failed, metrics = run_batch(runner, args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    record = {
        "args": vars(args),
        "backend": runner.backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_median_s": statistics.median(runner.calibrations),
        "check_errors": runner.errors[:50],
        "failures": runner.failures[:50],
        "result": result,
    }
    (OUT / f"{runner.stem}.json").write_text(json.dumps(record, indent=1))
    for err in (runner.errors + runner.failures)[:10]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} backend={runner.backend} "
          f"python={record['python']} nproc={record['nproc']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
