"""Tests of the benchmark's own checks and of its tiny mode.

Each check is fed a real liechar output and then a corrupted copy; the
corrupted copy must be rejected. Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import rootsys  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def cli(*argv):
    from liechar import cli as liechar_cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert liechar_cli.main(list(argv)) == 0
    return buf.getvalue()


def rejects(fn, *args):
    with pytest.raises(CheckError):
        fn(*args)


SIMPLE_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)] + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", SIMPLE_TYPES)
def test_root_strings_give_the_closed_form(series, rank):
    pos = rootsys.positive_roots(rootsys.cartan(series, rank))
    assert (2 * len(pos), rank) == rootsys.closed_form(f"{series}{rank}")


def test_closed_form_parses_sums_and_rejects_garbage():
    assert rootsys.closed_form("A1+A1+B2") == (12, 4)
    assert rootsys.closed_form("0") == (0, 0)
    with pytest.raises(ValueError):
        rootsys.closed_form("X3")


def test_enumerate_check_rejects_corruption():
    doc = json.loads(cli("endoscopy", "enumerate", "--type", "B3"))
    checks.check_enumerate(doc, "B", 3)
    bad = copy.deepcopy(doc)
    bad[-1]["lambda"]["torsion"] = [2]
    rejects(checks.check_enumerate, bad, "B", 3)
    bad = copy.deepcopy(doc)
    bad[-1]["H_type"] = "A3"
    rejects(checks.check_enumerate, bad, "B", 3)
    bad = copy.deepcopy(doc)
    bad[-1]["ord_s"] += 1
    rejects(checks.check_enumerate, bad, "B", 3)
    rejects(checks.check_enumerate, doc[:-1], "B", 3)


def test_estimate_check_rejects_corruption():
    doc = json.loads(cli("endoscopy", "estimate", "--type", "E6"))
    checks.check_estimate(doc, "E", 6)
    for key, val in (("center_order", 2), ("type", "E7"), ("special_orbit", [1, 6])):
        bad = dict(doc, **{key: val})
        rejects(checks.check_estimate, bad, "E", 6)
    bad = copy.deepcopy(doc)
    bad["large_nonspecial_orbits"][0]["gcd_with_center"] = 3
    rejects(checks.check_estimate, bad, "E", 6)


def test_from_kappa_check_rejects_corruption():
    import random

    rng = random.Random(0)
    kappa, vertex = workloads.elliptic_kappa(rng, "F", 4, "ad")
    doc = json.loads(cli("endoscopy", "from-kappa", "--type", "F4", "--isogeny", "ad",
                         "--kappa", json.dumps([str(x) for x in kappa])))
    checks.check_from_kappa(doc, "F", 4, "ad", kappa, vertex)
    assert doc["elliptic"]
    for key, val in (("elliptic", False), ("H_type", "B4"), ("ord_s", doc["ord_s"] + 1), ("orbit", [])):
        rejects(checks.check_from_kappa, dict(doc, **{key: val}), "F", 4, "ad", kappa, vertex)
    generic = workloads.generic_kappa(rng, "C", 3, "sc")
    doc = json.loads(cli("endoscopy", "from-kappa", "--type", "C3", "--kappa", json.dumps([str(x) for x in generic])))
    checks.check_from_kappa(doc, "C", 3, "sc", generic)
    assert not doc["elliptic"]
    rejects(checks.check_from_kappa, dict(doc, elliptic=True), "C", 3, "sc", generic)


def test_springer_check_rejects_corruption():
    doc = json.loads(cli("springer", "verify", "--group", "SL2", "--q", "5", "--all"))
    checks.check_springer(doc, "SL2", 5)
    bad = copy.deepcopy(doc)
    bad["cells"][0]["pass"] = False
    rejects(checks.check_springer, bad, "SL2", 5)
    bad = copy.deepcopy(doc)
    bad["cells"][0]["strongly_regular_points"] += 1
    rejects(checks.check_springer, bad, "SL2", 5)
    rejects(checks.check_springer, dict(doc, cells=doc["cells"][1:]), "SL2", 5)
    rejects(checks.check_springer, doc, "SL2", 7)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chartable_check_rejects_corruption(fmt):
    dixon = cli("chartable", "--group", "SL2", "--q", "5", "--method", "dixon", "--format", fmt)
    classical = cli("chartable", "--group", "SL2", "--q", "5", "--method", "classical", "--format", fmt)
    rows = checks.check_chartable(dixon, fmt, "SL2", 5)
    checks.check_tables_agree(rows, checks.check_chartable(classical, fmt, "SL2", 5))
    # a wrong value breaks orthogonality, a wrong size the class sizes
    if fmt == "csv":
        wrong_value = dixon.replace("-1,1,0", "-1,1,1", 1)
        wrong_size = dixon.replace("class8_size30", "class8_size31")
    else:
        doc = json.loads(dixon)
        doc["rows"][-1]["values"][-1] = "1"
        wrong_value = json.dumps(doc)
        doc = json.loads(dixon)
        doc["class_sizes"][-1] = 31
        wrong_size = json.dumps(doc)
    rejects(checks.check_chartable, wrong_value, fmt, "SL2", 5)
    rejects(checks.check_chartable, wrong_size, fmt, "SL2", 5)
    rejects(checks.check_chartable, dixon, fmt, "GL2", 5)
    shifted = rows.copy()
    shifted[next(iter(rows))] += 1
    rejects(checks.check_tables_agree, rows, shifted)


def test_parse_value():
    assert abs(checks.parse_value("cyc4[0,1]") - 1j) < 1e-12
    assert checks.parse_value("-3/2") == -1.5


def test_serve_checks_reject_corruption():
    checks.check_topological_jordan({"delta": [[1, 0], [0, 1]], "u": [[1, 3], [0, 1]]}, 3, 2, [[1, 3], [0, 1]])
    rejects(checks.check_topological_jordan, {"delta": [[1, 0], [0, 1]], "u": [[1, 3], [0, 1]]}, 3, 2, [[1, 4], [0, 1]])
    # delta of order 3 = p is not the finite-order part
    rejects(checks.check_topological_jordan, {"delta": [[1, 1], [0, 1]], "u": [[1, 0], [0, 1]]}, 3, 1, [[1, 1], [0, 1]])
    checks.check_hilbert({"symbols": {"2": -1, "inf": -1}})
    rejects(checks.check_hilbert, {"symbols": {"2": 1, "inf": -1}})
    checks.check_tn_pairing({"factors": [2], "value": "-1"}, [2])
    rejects(checks.check_tn_pairing, {"factors": [2], "value": "2"}, [2])
    rejects(checks.check_tn_pairing, {"factors": [2], "value": "cyc3[0,1]"}, [2])
    rejects(checks.check_tn_pairing, {"factors": [3], "value": "1"}, [2])
    checks.check_dl_value({"degree": "6", "value": "-1"}, "SL2", 5, "split")
    rejects(checks.check_dl_value, {"degree": "6", "value": "-7"}, "SL2", 5, "split")
    rejects(checks.check_dl_value, {"degree": "6", "value": "1"}, "SL2", 5, "elliptic")
    checks.check_cell_pass({"pass": True, "cases": 3}, "SL2")
    rejects(checks.check_cell_pass, {"pass": False}, None)
    rejects(checks.check_cell_pass, {"pass": True, "cases": 2}, "SL2")


def test_invariant_factors_from_minors():
    assert workloads.invariant_factors([[-1]]) == [2]
    assert workloads.invariant_factors([[0, 1], [1, 0]]) == []
    assert workloads.invariant_factors([[-1, 0], [0, -1]]) == [2, 2]
    assert workloads.invariant_factors([[0, -1], [1, -1]]) == [3]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["endoscopy-atlas", "character-sweep", "query-serve"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["endoscopy-atlas", "character-sweep", "query-serve"])
def test_tiny_mode_runs_every_workload(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs():
    assert workloads.atlas_commands(5) == workloads.atlas_commands(5)
    assert workloads.sweep_commands(5) == workloads.sweep_commands(5)
    assert workloads.serve_stream(5, 2) == workloads.serve_stream(5, 2)
    assert workloads.atlas_commands(5) != workloads.atlas_commands(6)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench-out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run("--workload", "endoscopy-atlas", "--seed", "1", "--seconds", "10", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
