"""One fresh interpreter of the benchmark: a CLI batch, the query service, or
an import alone (a set-up sample). run.py starts it and reads its result.

usage: python3 perfbench/child.py JOB.json RESULT.json

JOB holds "mode" ("import", "batch" or "serve"), "trace", "spans_path",
and the "commands" (CLI argument lists) or the "requests" and the
"working_set". RESULT holds the wall-clock time at which the first timed
operation was about to start ("ready_wall"), the kernel backend, the peak
resident set size, one record per operation, the time of the timed work,
the calibration times ("cal_s", see calibrate), and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction


def calibrate(rounds=20000):
    """Fixed pure-Python work in the style of liechar's inner loops (tuple
    keys in a dict, small-int arithmetic, Fractions); it touches no liechar
    code. Its duration measures how fast the machine runs Python right now."""
    start = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(rounds):
        key = ((i * 7919) % 1009, i % 7)
        table[key] = table.get(key, 0) + i
        if i % 40 == 0:
            acc += Fraction(i, key[0] + 1)
    return time.perf_counter() - start


def _batch(commands, cli, cal):
    """One record per call; cal gets one calibration after each call."""
    ops = []
    for argv in commands:
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # one failed call is counted, the batch goes on
            rc = None
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        ops.append({"latency_s": latency, "rc": rc, "stdout": buf.getvalue(), "error": error})
        cal.append(calibrate())
    return ops


def _serve(requests, ws, tracer, cal, round_size):
    """One record per request; cal gets one calibration between rounds and
    one after the last."""
    ops = []
    for i, req in enumerate(requests):
        if i and i % round_size == 0:
            cal.append(calibrate())
        if tracer is not None:
            tracer.request = i
        error = text = None
        start = time.perf_counter()
        try:
            text = json.dumps(ws.handle(req))
        except Exception:  # a failed request is counted, the service goes on
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        ops.append({"latency_s": latency, "response": text, "error": error})
    cal.append(calibrate())
    return ops


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import liechar._kernels

    if job["mode"] == "serve":
        import serve
    else:
        import liechar.cli
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = {"backend": liechar._kernels.BACKEND, "ops": [], "work_s": 0.0}
    # cal[0] follows the set-up; the timed spans below exclude calibrations
    cal = out["cal_s"] = []
    if job["mode"] == "batch":
        out["ready_wall"] = time.time()
        cal.append(calibrate())
        start = time.perf_counter()
        out["ops"] = _batch(job["commands"], liechar.cli, cal)
        out["work_s"] = time.perf_counter() - start - sum(cal[1:])
    elif job["mode"] == "serve":
        start = time.perf_counter()
        ws = serve.WorkingSet(job["working_set"])
        out["ready_wall"] = time.time()
        cal.append(calibrate())
        stream_start = time.perf_counter()
        out["ops"] = _serve(job["requests"], ws, tracer, cal, job["round_size"])
        end = time.perf_counter()
        out["stream_s"] = end - stream_start - sum(cal[1:])
        out["work_s"] = end - start - sum(cal)
    else:
        out["ready_wall"] = time.time()
        cal.append(calibrate())
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.metrics()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
