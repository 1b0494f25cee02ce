"""Exit-code and golden-output tests for the command-line interface."""

import csv
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import cli_sequence
from liechar.cli import main
from liechar.dl_spectra import CharacterTable


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_proc(argv):
    return subprocess.run(
        [sys.executable, "-m", "liechar.cli", *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )


# ---------------------------------------------------------------------------
# golden documents


def test_endoscopy_enumerate_sp4_golden():
    code, out, _ = run_cli(
        ["endoscopy", "enumerate", "--type", "C2", "--isogeny", "sc"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 2
    trivial, so4 = doc
    assert trivial["ord_s"] == 1 and trivial["H_type"] == "B2"
    assert so4 == {
        "orbit": [2],
        "ord_s": 2,
        "H_type": "A1+A1",
        "lambda": {"free_rank": 0, "torsion": [2]},
        "elliptic": True,
    }


def test_endoscopy_enumerate_g2_orders():
    code, out, _ = run_cli(["endoscopy", "enumerate", "--type", "G2"])
    assert code == 0
    assert sorted(t["ord_s"] for t in json.loads(out)) == [1, 2, 3]


def test_endoscopy_from_kappa():
    code, out, _ = run_cli(
        ["endoscopy", "from-kappa", "--type", "C2", "--kappa", '["1/2", "1/2"]']
    )
    assert code == 0
    assert json.loads(out)["ord_s"] == 2


def test_endoscopy_estimate_e6():
    code, out, _ = run_cli(["endoscopy", "estimate", "--type", "E6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["center_order"] == 3
    assert len(doc["large_nonspecial_orbits"]) == 1
    assert doc["large_nonspecial_orbits"][0]["ord_s"] == 2


def test_tori_h1_norm_one():
    code, out, _ = run_cli(["tori", "h1", "--frobenius", "[[-1]]"])
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [2]


def test_tori_pair_value():
    code, out, _ = run_cli(
        ["tori", "pair", "--frobenius", "[[-1]]", "--inv", "[1]", "--kappa", "[1]"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "-1" and doc["conductor"] == 2


def test_tori_sln_group():
    code, out, _ = run_cli(
        ["tori", "sln-group", "--n", "4", "--m", "2", "--degrees", "[1, 1]"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == {"free_rank": 0, "torsion": [2]}
    assert len(doc["witnesses"]) == 4


def test_springer_verify_sl2_5_all():
    code, out, _ = run_cli(
        ["springer", "verify", "--group", "SL2", "--q", "5", "--all"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    # 2 split + 4 elliptic non-singular characters, 3 unipotent classes each
    assert len(doc["cells"]) == 6
    tags = [c["torus"] for c in doc["cells"]]
    assert tags.count("split") == 2 and tags.count("elliptic") == 4
    assert all(len(c["unipotent_classes"]) == 3 for c in doc["cells"])
    assert all(c["strongly_regular_points"] == 4 for c in doc["cells"])


def test_springer_verify_gl2_3_all():
    code, out, _ = run_cli(["springer", "verify", "--group", "GL2", "--q", "3", "--all"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["cells"]) == 8


def test_chartable_csv_gl2_3():
    code, out, _ = run_cli(
        ["chartable", "--group", "GL2", "--q", "3", "--method", "classical"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "degree"
    degrees = sorted(int(r[0]) for r in rows[1:])
    assert degrees == [1, 1, 2, 2, 2, 3, 3, 4]


def test_chartable_json_matches_methods():
    # exact value agreement between the two methods is covered by the
    # tables_match tests; the documents can render one value at different
    # conductors, so here the shared shape is compared
    outs = []
    for method in ("dixon", "classical"):
        code, out, _ = run_cli(
            [
                "chartable",
                "--group",
                "SL2",
                "--q",
                "3",
                "--method",
                method,
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        outs.append(doc)
    assert [r["degree"] for r in outs[0]["rows"]] == [
        r["degree"] for r in outs[1]["rows"]
    ]
    assert outs[0]["class_sizes"] == outs[1]["class_sizes"]
    assert outs[0]["order"] == outs[1]["order"] == 24


@pytest.mark.parametrize(
    "kind,q",
    [("SL2", 3), ("SL2", 5), ("SL2", 7), ("SL2", 9), ("SL2", 11), ("GL2", 3), ("GL2", 5)],
)
def test_chartable_methods_print_the_same_document(kind, q):
    # each value prints at its smallest conductor, so the two methods agree
    # as text, row order included
    docs = []
    for method in ("dixon", "classical"):
        code, out, _ = run_cli(
            ["chartable", "--group", kind, "--q", str(q), "--method", method, "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc.pop("method") == method
        docs.append(doc)
    assert docs[0] == docs[1]


def test_tjd_golden():
    code, out, _ = run_cli(["tjd", "--p", "5", "--k", "2", "--matrix", "[[2]]"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "p": 5,
        "k": 2,
        "delta": [[7]],
        "u": [[11]],
        "order_r": 4,
    }


def test_hilbert_golden():
    code, out, _ = run_cli(["hilbert", "--a", "-1", "--b", "-1", "--place", "2"])
    assert code == 0
    assert json.loads(out)["symbol"] == -1


# ---------------------------------------------------------------------------
# exit-code contract


def test_unknown_subcommand_exits_2():
    code, _, err = run_cli(["frobnicate"])
    assert code == 2
    assert "usage" in err.lower()


def test_missing_required_flag_exits_2():
    code, _, _ = run_cli(["springer", "verify", "--group", "SL2"])
    assert code == 2


def test_csv_rejected_for_json_only_command():
    code, _, err = run_cli(
        ["hilbert", "--a", "2", "--b", "3", "--place", "5", "--format", "csv"]
    )
    assert code == 2
    assert "csv" in err


def test_tjd_failure_exits_1():
    code, out, _ = run_cli(["tjd", "--p", "3", "--k", "2", "--matrix", "[[3,0],[0,1]]"])
    assert code == 1
    assert "error" in json.loads(out)


def test_tjd_huge_precision_is_refused_by_the_cap():
    code, out, _ = run_cli(["tjd", "--p", "3", "--k", "10000000", "--matrix", "[[2]]"])
    assert code == 1
    assert json.loads(out) == {"error": "precision capped at 64"}


def test_hilbert_zero_exits_1():
    code, out, _ = run_cli(["hilbert", "--a", "0", "--b", "3", "--place", "5"])
    assert code == 1
    assert "error" in json.loads(out)


def test_endoscopy_estimate_type_a_exits_1():
    code, out, err = run_cli(["endoscopy", "estimate", "--type", "A3"])
    assert code == 1
    assert json.loads(out) == {"error": "type A is excluded from the estimate check"}
    assert err == ""


@pytest.mark.parametrize(
    "argv,check",
    [
        (["springer", "verify", "--group", "SL2", "--q", "15"], "not a prime power"),
        (["springer", "verify", "--group", "GL2", "--q", "4"], "center"),
        (["chartable", "--group", "SL2", "--q", "17", "--method", "classical"], "budget"),
        (["chartable", "--group", "GL2", "--q", "11", "--method", "dixon"], "10^4 budget"),
        (["hilbert", "--a", "2", "--b", "3", "--place", "x"], "--place"),
        (["endoscopy", "estimate", "--type", "A3", "--format", "csv"], "type A is excluded"),
    ],
    ids=["q-not-prime-power", "q-even", "q-over-budget", "dixon-budget", "place", "csv"],
)
def test_rejected_input_prints_json_error_whatever_the_format(argv, check):
    code, out, err = run_cli(argv)
    assert code == 1
    assert check in json.loads(out)["error"]
    assert err == ""


_HUGE = 10**300


@pytest.mark.parametrize(
    "argv,budget",
    [
        (["tori", "sln-group", "--n", "300", "--m", "2", "--degrees", "[150]"], "rank 299 exceeds the budget 8"),
        (["tori", "sln-group", "--n", "120", "--m", "60", "--degrees", "[2]"], "rank 119 exceeds the budget 8"),
        (["tori", "h1", "--frobenius", json.dumps([[_HUGE + 1, _HUGE], [1, 1]])], "exceeds the budget 1000000"),
    ],
)
def test_twisted_torus_budgets_refuse_huge_inputs_at_once(argv, budget):
    # without the rank and entry budgets each of these runs for seconds, or
    # without end
    start = time.monotonic()
    code, out, err = run_cli(argv)
    assert time.monotonic() - start < 1.0
    assert code == 1
    doc = json.loads(out)
    assert list(doc) == ["error"] and budget in doc["error"]
    assert err == ""


def test_tori_pair_bad_coordinates_exits_1():
    code, out, err = run_cli(
        ["tori", "pair", "--frobenius", "[[0,1],[1,0]]", "--inv", "[0]", "--kappa", "[0]"]
    )
    assert code == 1
    assert "error" in json.loads(out)
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["endoscopy", "from-kappa", "--type", "C2", "--kappa", '["1/0", 0]'],
        ["endoscopy", "from-kappa", "--type", "C2", "--kappa", "5"],
        ["tori", "h1", "--frobenius", "5"],
        ["tori", "pair", "--frobenius", "[[-1]]", "--inv", "1", "--kappa", "[1]"],
        ["tori", "sln-group", "--n", "4", "--m", "2", "--degrees", "3"],
        ["tjd", "--p", "5", "--k", "2", "--matrix", "3"],
        ["tjd", "--p", "5", "--k", "2", "--matrix", "[[1.5]]"],
    ],
)
def test_malformed_json_argument_exits_1(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert "error" in json.loads(out)
    assert err == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["tjd", "--p", "5", "--k", "2", "--matrix", "nope"], "--matrix"),
        (["hilbert", "--a", "x", "--b", "3", "--place", "5"], "--a"),
        (["hilbert", "--a", "1/0", "--b", "3", "--place", "5"], "--a"),
        (["hilbert", "--a", "2", "--b", "3/", "--place", "5"], "--b"),
        (["endoscopy", "from-kappa", "--type", "C2", "--kappa", "[null, 0]"], "--kappa"),
    ],
    ids=["matrix-not-json", "a-not-rational", "a-zero-denominator", "b-not-rational", "kappa-null"],
)
def test_rejected_argument_is_named(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"].startswith(flag + ":")
    assert err == ""


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_is_built_on_the_first_call_and_reused():
    # a fresh interpreter, so that no earlier call has built the parser
    script = """
import liechar.cli as cli
built = []
real = cli.build_parser
cli.build_parser = lambda: built.append(1) or real()
print(len(built))
for argv in (["hilbert", "--a", "2", "--b", "3", "--place", "5"], ["tori", "h1", "--frobenius", "[[-1]]"],
             ["hilbert", "--a", "-1", "--b", "-1", "--place", "2"]):
    cli.main(argv)
print(len(built))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("0", "1")


def test_in_process_sequence_matches_fresh_processes():
    got, faults = cli_sequence.mismatches()
    assert [code for code, _, _ in got] == cli_sequence.EXIT_CODES
    assert not faults
    # the CSV default came back after the JSON call, and the enumerate call
    # did not see the --kappa of the call before it
    assert got[0][1].startswith("{") and got[1][1].startswith("degree,")
    assert "kappa" in got[2][2] and "kappa" not in got[3][2]


def test_selftest_runs_the_table_checks_and_the_gl2_quasi_log(monkeypatch):
    code, out, _ = run_cli(["selftest"])
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names.count("qlog_gl2_3_1") == 1
    assert names.index("qlog_gl2_3_1") == names.index("qlog_sl2_3_1") + 1

    def refuse(table):
        raise AssertionError("orthogonality fails")

    monkeypatch.setattr(CharacterTable, "verify", refuse)
    code, out, _ = run_cli(["selftest"])
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["dixon_vs_classical_sl2_3"]
    assert "orthogonality" in failed[0]["detail"]


# ---------------------------------------------------------------------------
# determinism, --out


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path):
    path = tmp_path / "doc.json"
    code, out, _ = run_cli(
        ["tori", "h1", "--frobenius", "[[-1]]", "--out", str(path)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["invariant_factors"] == [2]


def test_identical_runs_are_byte_identical():
    a = run_cli(["endoscopy", "enumerate", "--type", "D4"])
    b = run_cli(["endoscopy", "enumerate", "--type", "D4"])
    assert a == b


def test_selftest_deterministic_and_green():
    r1 = run_proc(["selftest", "--seed", "7"])
    r2 = run_proc(["selftest", "--seed", "7"])
    assert r1.returncode == 0, r1.stdout + r1.stderr
    assert r1.stdout == r2.stdout
    doc = json.loads(r1.stdout)
    assert doc["pass"] is True
    assert len(doc["checks"]) >= 10


HUGE_PRIME = "1000000000000000003"


@pytest.mark.parametrize(
    "argv,budget",
    [
        (["springer", "verify", "--group", "GL2", "--q", HUGE_PRIME], "GL2 budget is q <= 13"),
        (["chartable", "--group", "SL2", "--q", HUGE_PRIME, "--method", "classical"], "SL2 budget is q <= 13"),
        (["tjd", "--p", HUGE_PRIME, "--k", "1", "--matrix", "[[2]]"], "ORDER_BUDGET"),
        (["hilbert", "--a", "2", "--b", "3", "--place", HUGE_PRIME], None),
    ],
    ids=["springer", "chartable", "tjd", "hilbert"],
)
def test_huge_prime_input_ends_quickly(argv, budget):
    # each of these ran until killed while primality was trial division
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "liechar.cli", *argv], capture_output=True, text=True, timeout=10
    )
    assert time.perf_counter() - start < 10
    doc = json.loads(proc.stdout)
    assert proc.stderr == ""
    if budget is None:
        assert proc.returncode == 0 and doc["symbol"] == 1
    else:
        assert proc.returncode == 1 and budget in doc["error"]
