"""Exit-code and golden-output tests for the command-line interface."""

import csv
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import lcm

import pytest

import cli_sequence
from test_cyclo import ONE_TEXT
from liechar import cli
from liechar.cli import main
from liechar.dl_spectra import CharacterTable
from liechar.exact_math import Cyclotomic
from liechar.padic import hilbert_symbol


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
    assert doc["value"] == "-1" and doc["conductor"] == 1


# a Frobenius of order 4 on a rank-4 lattice with H^1 = Z/2 + Z/4
Z2_Z4_FROBENIUS = "[[-1,0,0,0],[0,0,0,-1],[0,1,0,-1],[0,0,1,-1]]"


@pytest.mark.parametrize(
    "inv,kappa,value,conductor",
    [("[1,0]", "[1,1]", "-1", 1), ("[0,1]", "[1,0]", "1", 1), ("[0,1]", "[0,1]", "cyc4[0,1]", 4)],
)
def test_tori_pair_prints_the_conductor_of_its_text(inv, kappa, value, conductor):
    # the conductor is the d of the value's text cycD[...], 1 for a
    # rational, whatever the order of H^1's classes
    code, out, _ = run_cli(["tori", "h1", "--frobenius", Z2_Z4_FROBENIUS])
    assert code == 0 and json.loads(out)["invariant_factors"] == [2, 4]
    code, out, _ = run_cli(["tori", "pair", "--frobenius", Z2_Z4_FROBENIUS, "--inv", inv, "--kappa", kappa])
    assert code == 0
    doc = json.loads(out)
    assert (doc["value"], doc["conductor"]) == (value, conductor)


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
    # the two documents share their shape here; that they are one document
    # is test_chartable_methods_print_the_same_document
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
    # only chartable has --format: on any other subcommand either value is
    # a usage error
    for fmt in ("csv", "json"):
        code, out, err = run_cli(["hilbert", "--a", "2", "--b", "3", "--place", "5", "--format", fmt])
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --format {fmt}" in err


def test_tjd_failure_exits_1():
    code, out, _ = run_cli(["tjd", "--p", "3", "--k", "2", "--matrix", "[[3,0],[0,1]]"])
    assert code == 1
    assert "error" in json.loads(out)


def test_tjd_huge_precision_is_refused_by_the_cap():
    code, out, _ = run_cli(["tjd", "--p", "3", "--k", "10000000", "--matrix", "[[2]]"])
    assert code == 1
    assert json.loads(out) == {"error": "--k: precision k = 10000000 exceeds the budget PRECISION_BUDGET = 64"}


def test_hilbert_zero_exits_1():
    code, out, _ = run_cli(["hilbert", "--a", "0", "--b", "3", "--place", "5"])
    assert code == 1
    assert "error" in json.loads(out)


def test_endoscopy_estimate_type_a_exits_1():
    code, out, err = run_cli(["endoscopy", "estimate", "--type", "A3"])
    assert code == 1
    assert json.loads(out) == {"error": "--type: type A is excluded from the estimate check"}
    assert err == ""


@pytest.mark.parametrize("isogeny", ["sc", "ad"])
def test_endoscopy_estimate_d3_is_type_a_and_exits_1(isogeny):
    # D3 = A3: the check reads the root system, not the label
    code, out, err = run_cli(["endoscopy", "estimate", "--type", "D3", "--isogeny", isogeny])
    assert code == 1
    assert json.loads(out) == {"error": "--type: type A is excluded from the estimate check"}
    assert err == ""


@pytest.mark.parametrize(
    "argv,check",
    [
        (["springer", "verify", "--group", "SL2", "--q", "15"], "not a prime power"),
        (["springer", "verify", "--group", "GL2", "--q", "4"], "center"),
        (["chartable", "--group", "SL2", "--q", "17", "--method", "classical"], "no field F_q with q = 17: q exceeds MAX_Q = 16"),
        (["chartable", "--group", "GL2", "--q", "11", "--method", "dixon"], "exceeds the budget DIXON_ORDER_BUDGET = 10000"),
        (["hilbert", "--a", "2", "--b", "3", "--place", "x"], "--place"),
        (["chartable", "--group", "SL2", "--q", "17", "--format", "csv"], "no field F_q with q = 17: q exceeds MAX_Q = 16"),
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
        (["tori", "sln-group", "--n", "300", "--m", "2", "--degrees", "[150]"], "rank 299 exceeds the budget RANK_BUDGET = 8"),
        (["tori", "sln-group", "--n", "120", "--m", "60", "--degrees", "[2]"], "rank 119 exceeds the budget RANK_BUDGET = 8"),
        (
            ["tori", "h1", "--frobenius", json.dumps([[_HUGE + 1, _HUGE], [1, 1]])],
            "exceeds the budget ENTRY_BUDGET = 1000000 in absolute value",
        ),
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


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["endoscopy", "from-kappa", "--type", "A2", "--kappa", '["1e30000000", "0"]'], "--kappa"),
        (["endoscopy", "from-kappa", "--type", "A2", "--kappa", '["1e-100000", "0"]'], "--kappa"),
        (["hilbert", "--a", "1e30000000", "--b", "3", "--place", "2"], "--a"),
        (["hilbert", "--a", "1e-100000", "--b", "3", "--place", "2"], "--a"),
        (["hilbert", "--a", "2", "--b", "1" * 1001, "--place", "2"], "--b"),
        (["endoscopy", "from-kappa", "--type", "A2", "--kappa", "[1e5000, 0]"], "--kappa"),
    ],
    ids=["kappa-huge", "kappa-tiny", "a-huge", "a-tiny", "b-long", "kappa-number-huge"],
)
def test_rational_digit_budget_refuses_huge_exponents_at_once(argv, flag):
    # Fraction("1eN") forms 10**N: without the budget the first and third
    # run past 20 s and the fourth for 16 s, so each call runs in its own
    # interpreter, which the timeout ends, and times its `main` call there
    script = (
        "import sys, time, liechar.cli as cli\n"
        "start = time.monotonic()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(time.monotonic() - start, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=10
    )
    assert float(proc.stderr) < 1.0
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert list(doc) == ["error"]
    assert doc["error"].startswith(flag + ":") and "rational digit budget 1000" in doc["error"]


@pytest.mark.parametrize("text", ["0.10000000000000000001", "1e-400", "1e400"])
def test_kappa_number_is_read_exactly_like_its_string(text):
    """A JSON number in --kappa is read from its text, as the same text in
    a string is: through a float, 0.10000000000000000001 would be 0.1,
    1e-400 would be 0 and 1e400 infinite."""
    number = run_cli(["endoscopy", "from-kappa", "--type", "A2", "--kappa", f"[{text}, 0]"])
    string = run_cli(["endoscopy", "from-kappa", "--type", "A2", "--kappa", json.dumps([text, "0"])])
    assert number == string
    code, out, _ = number
    assert code == 0 and json.loads(out)["ord_s"] == Fraction(text).denominator


def test_rational_digit_budget_admits_its_edge():
    code, out, _ = run_cli(["hilbert", "--a", "1e-990", "--b", "3", "--place", "2"])
    assert code == 0 and json.loads(out)["symbol"] == 1
    code, out, _ = run_cli(["hilbert", "--a", "1e-1000", "--b", "3", "--place", "2"])
    assert code == 1 and "rational digit budget" in json.loads(out)["error"]


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


_UNDERSCORED = {"int": "1_0", "exponent": "1e1_0", "fraction": "1_0/2"}


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["tjd", "--p", "5", "--k", "2", "--matrix", "nope"], "--matrix"),
        (["hilbert", "--a", "x", "--b", "3", "--place", "5"], "--a"),
        (["hilbert", "--a", "1/0", "--b", "3", "--place", "5"], "--a"),
        (["hilbert", "--a", "2", "--b", "3/", "--place", "5"], "--b"),
        (["endoscopy", "from-kappa", "--type", "C2", "--kappa", "[null, 0]"], "--kappa"),
        # Fraction reads digit underscores from Python 3.11 on; every
        # version refuses them
        *((["hilbert", "--a", x, "--b", "3", "--place", "5"], "--a") for x in _UNDERSCORED.values()),
        *(
            (["endoscopy", "from-kappa", "--type", "A2", "--kappa", json.dumps([x, "0"])], "--kappa")
            for x in _UNDERSCORED.values()
        ),
    ],
    ids=[
        "matrix-not-json", "a-not-rational", "a-zero-denominator", "b-not-rational", "kappa-null",
        *(f"{flag}-underscore-{name}" for flag in ("a", "kappa") for name in _UNDERSCORED),
    ],
)
def test_rejected_argument_is_named(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"].startswith(flag + ":")
    assert err == ""


_LONG = "1" * 5000  # past the 4300-digit limit on integer string conversion


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no limit on integer string conversion",
)
@pytest.mark.parametrize(
    "argv,flag",
    [
        (["endoscopy", "from-kappa", "--type", "A2", "--kappa", f"[{_LONG}, 0]"], "--kappa"),
        (["tori", "h1", "--frobenius", f"[[{_LONG}]]"], "--frobenius"),
        (["tori", "pair", "--frobenius", "[[-1]]", "--inv", f"[{_LONG}]", "--kappa", "[0]"], "--inv"),
        (["tori", "pair", "--frobenius", "[[-1]]", "--inv", "[0]", "--kappa", f"[{_LONG}]"], "--kappa"),
        (["tori", "sln-group", "--n", "4", "--m", "2", "--degrees", f"[{_LONG}]"], "--degrees"),
        (["tjd", "--p", "5", "--k", "2", "--matrix", f"[[{_LONG}]]"], "--matrix"),
    ],
    ids=["from-kappa", "frobenius", "inv", "pair-kappa", "degrees", "matrix"],
)
def test_json_integer_past_the_conversion_limit_is_named(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 1
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert doc["error"].startswith(flag + ":") and "4300-digit conversion limit" in doc["error"]
    assert err == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["tori", "sln-group", "--n", _LONG, "--m", "2", "--degrees", "[1]"], "--n"),
        (["tori", "sln-group", "--n", "4", "--m", _LONG, "--degrees", "[1]"], "--m"),
        (["springer", "verify", "--group", "GL2", "--q", _LONG], "--q"),
        (["chartable", "--group", "SL2", "--q", _LONG], "--q"),
        (["tjd", "--p", _LONG, "--k", "1", "--matrix", "[[1]]"], "--p"),
        (["tjd", "--p", "5", "--k", _LONG, "--matrix", "[[1]]"], "--k"),
        (["selftest", "--seed", _LONG], "--seed"),
    ],
    ids=["n", "m", "springer-q", "chartable-q", "p", "k", "seed"],
)
def test_integer_flag_past_the_conversion_limit_is_refused_by_its_check(argv, flag):
    """An integer flag past 4300 digits is read exactly and refused by the
    check or budget it passes, on every Python: one JSON error led by the
    flag (among the flags that set what is refused), not a usage error."""
    start = time.monotonic()
    code, out, err = run_cli(argv)
    assert time.monotonic() - start < 1
    assert code == 1
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert flag in doc["error"].split(": ")[0].split(", ")
    assert "4300-digit" not in doc["error"] and err == ""


# ---------------------------------------------------------------------------
# the argument grammar: every flag reads one kind of value, through one reader
# per kind

# the flags of each kind, as README lists them. The texts below are read
# through each flag's entry in `cli.FLAG_KINDS`, so a flag moved to another
# kind's reader gives that kind's verdicts, not these
_KIND_FLAGS = {
    "integer": [
        "tori sln-group --n", "tori sln-group --m", "springer verify --q", "chartable --q", "tjd --p", "tjd --k",
        "selftest --seed",
    ],
    "Cartan type": ["endoscopy enumerate --type", "endoscopy from-kappa --type", "endoscopy estimate --type"],
    "rational": ["hilbert --a", "hilbert --b"],
    "rational list": ["endoscopy from-kappa --kappa"],
    "integer list": ["tori pair --inv", "tori pair --kappa", "tori sln-group --degrees"],
    "integer matrix": ["tori h1 --frobenius", "tori pair --frobenius", "tjd --matrix"],
    "place": ["hilbert --place"],
    "choice": [
        "endoscopy enumerate --isogeny", "endoscopy from-kappa --isogeny", "endoscopy estimate --isogeny",
        "springer verify --group", "chartable --group", "chartable --method", "chartable --format",
    ],
    "switch": ["springer verify --all"],
}

# a valid text of each kind but choice, and its value; a switch is given
# without a text
_VALID = {
    "integer": ("5", 5),
    "Cartan type": ("A2", ("A", 2)),
    "rational": ("1/2", Fraction(1, 2)),
    "rational list": ('["1/2", 0]', (Fraction(1, 2), Fraction(0))),
    "integer list": ("[0]", (0,)),
    "integer matrix": ("[[1]]", [[1]]),
    "place": ("inf", "inf"),
    "switch": (None, True),
}

_NINES = "9" * 5000  # an ASCII decimal past Python's 4300-digit conversion limit
_EDGE_TEXTS = ["\uff15", "1_0", " 7", "+5", "-3", "007", _NINES, "x", ""]


def _json_past_the_limit(what):
    # a JSON integer past 4300 digits is refused by Python's conversion
    # limit, on the Pythons that have one
    if hasattr(sys, "get_int_max_str_digits"):
        return "an integer exceeds Python's 4300-digit conversion limit"
    return f"expected a JSON {what}, got {_NINES!r}"


# each kind's verdict on each edge text: a value, or the refusal's message
# (written by the kind's function of the text, unless the kind lists the
# text), or None for a usage error
_GRAMMAR = {
    "integer": (lambda t: f"expected an integer, got {t!r}", {"+5": 5, "-3": -3, "007": 7, _NINES: 10**5000 - 1}),
    "Cartan type": (lambda t: f"bad type {t!r}; expected e.g. A3, C2, E6", {}),
    "rational": (
        lambda t: f"expected a rational such as 1/2, got {t!r}",
        {
            "+5": Fraction(5), "-3": Fraction(-3), "007": Fraction(7),
            _NINES: "5000 digits, exponent included, exceed the rational digit budget 1000",
        },
    ),
    "rational list": (
        lambda t: f"not valid JSON: {t!r}",
        {"-3": "expected a JSON list of rationals, got '-3'", _NINES: _json_past_the_limit("list of rationals")},
    ),
    "integer list": (
        lambda t: f"not valid JSON: {t!r}",
        {"-3": "expected a JSON list of integers, got '-3'", _NINES: _json_past_the_limit("list of integers")},
    ),
    "integer matrix": (
        lambda t: f"not valid JSON: {t!r}",
        {"-3": "expected a JSON matrix of integers, got '-3'", _NINES: _json_past_the_limit("matrix of integers")},
    ),
    "place": (lambda t: "place must be a prime or 'inf'", {"007": 7, _NINES: 10**5000 - 1}),
    "choice": (lambda t: None, {}),
    "switch": (lambda t: None, {}),
}


def _valid(command, flag):
    """(text, value) of a valid value of flag, by the kind this test gives
    it; a choice's is its first choice."""
    kind = next(kind for kind, flags in _KIND_FLAGS.items() if f"{command} {flag}" in flags)
    if kind == "choice":
        choice = cli.FLAG_KINDS[command][flag].structure["choices"][0]
        return choice, choice
    return _VALID[kind]


def _argv(command, flag, text):
    """command with every flag at a valid text, and flag at text (None: at
    its valid text)."""
    argv = command.split()
    for other in cli.FLAG_KINDS[command]:
        given = text if other == flag and text is not None else _valid(command, other)[0]
        argv += [other] if given is None else [other, given]
    return argv


def _verdict(command, flag, text=None):
    """What reading text as command's flag gives: its value, with its type;
    a refusal's message, its subject the flag; or None for a usage error."""
    try:
        with redirect_stderr(io.StringIO()):
            args = cli.build_parser().parse_args(_argv(command, flag, text))
    except SystemExit:
        return None
    try:
        cli._read(args)
    except ValueError as e:
        assert e.subject == flag
        return str(e)
    value = getattr(args, flag[2:])
    return type(value), value


def test_every_flag_has_one_kind_in_the_table():
    table = {f"{command} {flag}": kind.name for command, flags in cli.FLAG_KINDS.items() for flag, kind in flags.items()}
    assert table == {flag: kind for kind, flags in _KIND_FLAGS.items() for flag in flags}


@pytest.mark.parametrize("kind", list(_GRAMMAR))
def test_every_flag_of_a_kind_reads_its_grammar(kind):
    """Each edge text has one verdict per kind, the same through every flag
    of the kind: ASCII digits only, no digit underscores, no whitespace
    around the value; a sign and leading zeros where the kind reads them;
    an ASCII decimal past 4300 digits read exactly by the integer and place
    kinds. Through `main`, a refused text is one JSON error led by its flag,
    exit 1, and a usage error is exit 2 with nothing on stdout."""
    message, listed = _GRAMMAR[kind]
    for entry in _KIND_FLAGS[kind]:
        command, _, flag = entry.rpartition(" ")
        valid = _valid(command, flag)[1]
        assert _verdict(command, flag) == (type(valid), valid), (command, flag)
        for text in _EDGE_TEXTS:
            want = listed.get(text, message(text))
            if want is not None and not isinstance(want, str):
                want = (type(want), want)
            assert _verdict(command, flag, text) == want, (command, flag, text[:20])
            if not isinstance(want, tuple):
                code, out, err = run_cli(_argv(command, flag, text))
                if want is None:
                    assert (code, out) == (2, ""), (command, flag, text[:20])
                else:
                    assert (code, json.loads(out), err) == (1, {"error": f"{flag}: {want}"}, "")


def test_integer_kind_reads_long_decimals_exactly_and_refuses_the_rest():
    for text, value in [
        ("0" * 5000 + "9", 9),
        ("-" + "9" * 5000, 1 - 10**5000),
        ("1" + "0" * 131_071, 10**131_071),  # Linux's cap on one argument
    ]:
        assert _verdict("tjd", "--k", text) == (int, value)
    for text in ["1.5", "1" * 5000 + "x", "+-5", "5-"]:
        assert _verdict("tjd", "--k", text) == f"expected an integer, got {text!r}"


_BOUND_TEXT = "is decided only below PRIME_BOUND = 3317044064679887385961981"
_NOT_A_PLACE = "place must be a prime or 'inf'"


@pytest.mark.parametrize(
    "place,want",
    [
        *((str(v), v) for v in (2, 3, 5, 7)),
        ("0" * 5000 + "7", 7),
        ("0" * 10 + "3317044064679887385961981", f"primality of 3317044064679887385961981 {_BOUND_TEXT}"),
        # Arabic-Indic zeros are no ASCII digits
        ("\u0660" * 30 + "7", _NOT_A_PLACE),
        # past PRIME_BOUND, a place is refused by is_prime: as no prime when
        # a Miller-Rabin base divides it, else by its bound
        ("2" + "0" * 25, _NOT_A_PLACE),
        (str(10**30 + 57), f"primality of {10**30 + 57} {_BOUND_TEXT}"),
        ("1" * 4300, _NOT_A_PLACE),
        ("1" * 5000, _NOT_A_PLACE),
        ("0" + "1" * 4300, _NOT_A_PLACE),
    ],
    ids=[
        "decimal-2", "decimal-3", "decimal-5", "decimal-7", "leading-zeros", "prime-bound-after-zeros",
        "arabic-indic-zeros", "even-26", "no-small-factor-31", "4300", "5000", "4300-after-a-zero",
    ],
)
def test_place_kind_reads_ascii_decimals_exactly(place, want):
    """The text of --place is read by the CLI, "inf" or ASCII digits, exactly
    and past 4300 digits too, and echoed in the document as given;
    `hilbert_symbol` takes the int and decides whether it is a prime."""
    for a, b in ((2, 3), (-1, -1), (5, 7)):
        code, out, err = run_cli(["hilbert", "--a", str(a), "--b", str(b), "--place", place])
        if isinstance(want, int):
            symbol = hilbert_symbol(a, b, want)
            assert (code, json.loads(out)) == (0, {"a": str(a), "b": str(b), "place": place, "symbol": symbol})
        else:
            assert (code, json.loads(out), err) == (1, {"error": f"--place: {want}"}, "")


_DEEP = "[" * 50_000 + "]" * 50_000  # past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["endoscopy", "from-kappa", "--type", "A2", "--kappa", _DEEP], "--kappa"),
        (["tori", "h1", "--frobenius", _DEEP], "--frobenius"),
        (["tori", "pair", "--frobenius", "[[-1]]", "--inv", _DEEP, "--kappa", "[0]"], "--inv"),
        (["tori", "pair", "--frobenius", "[[-1]]", "--inv", "[0]", "--kappa", _DEEP], "--kappa"),
        (["tori", "sln-group", "--n", "4", "--m", "2", "--degrees", _DEEP], "--degrees"),
        (["tjd", "--p", "5", "--k", "2", "--matrix", _DEEP], "--matrix"),
    ],
    ids=["from-kappa", "frobenius", "inv", "pair-kappa", "degrees", "matrix"],
)
def test_json_nested_too_deeply_is_named(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 1
    assert json.loads(out) == {"error": f"{flag}: JSON nested too deeply"}
    assert err == ""


_SIXTY = "1" * 60


@pytest.mark.parametrize(
    "argv,flag,message",
    [
        (
            ["tori", "pair", "--frobenius", "[[-1]]", "--inv", f"[{_SIXTY}]", "--kappa", "[0]"],
            "--inv",
            f"h1 coordinate {_SIXTY} out of range for Z/2",
        ),
        (
            ["tori", "pair", "--frobenius", "[[-1]]", "--inv", "[1, 0]", "--kappa", "[0]"],
            "--inv",
            "h1 coordinate length mismatch",
        ),
        (
            ["tori", "pair", "--frobenius", "[[-1]]", "--inv", "[1]", "--kappa", "[2]"],
            "--kappa",
            "pi0 coordinate 2 out of range for Z/2",
        ),
        (
            ["tori", "sln-group", "--n", "4", "--m", "2", "--degrees", f"[{_SIXTY}]"],
            "--degrees",
            "degrees must sum to n/m",
        ),
        (
            ["tori", "sln-group", "--n", "3", "--m", "2", "--degrees", "[1]"],
            "--n, --m",
            "n must be a multiple of m, with n, m >= 1",
        ),
        (
            ["tori", "sln-group", "--n", "40", "--m", "5", "--degrees", "[1,1,1,1,1,1,1,1]"],
            "--m, --degrees",
            "twist enumeration 5^8 exceeds the budget TWIST_BUDGET = 100000",
        ),
        (
            ["tori", "h1", "--frobenius", "[[2]]"],
            "--frobenius",
            "frobenius must be unimodular",
        ),
        (
            ["tori", "h1", "--frobenius", "[[2000000]]"],
            "--frobenius",
            "frobenius entry exceeds the budget ENTRY_BUDGET = 1000000 in absolute value",
        ),
    ],
    ids=["inv-range", "inv-length", "kappa-range", "degrees-sum", "n-m", "twists", "unimodular", "entry"],
)
def test_tori_range_error_names_its_flag(argv, flag, message):
    code, out, err = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"].startswith(f"{flag}: {message}")
    assert err == ""


_IDENTITY_9 = json.dumps([[int(i == j) for j in range(9)] for i in range(9)])
_ZERO_13 = json.dumps([[0] * 13] * 13)
# unipotent: every trace of a power is the rank, so only the order budget ends it
_UNIPOTENT_8 = json.dumps([[1 if i == j else 10**6 * (j > i) for j in range(8)] for i in range(8)])
_PAST_PRIME_BOUND = str(10**30 + 57)  # no prime factor below 43


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["springer", "verify", "--group", "GL2", "--q", "4"],
            "--q: p = 2 divides the order 2 of the simply connected center for GL2",
        ),
        (["chartable", "--group", "SL2", "--q", "17"], "--q: no field F_q with q = 17: q exceeds MAX_Q = 16"),
        (["chartable", "--group", "SL2", "--q", "15"], "--q: 15 is not a prime power"),
        # q is bounded before it is factored, so no factor of q is named
        (
            ["chartable", "--group", "SL2", "--q", str(10**40 + 1)],
            f"--q: no field F_q with q = {10**40 + 1}: q exceeds MAX_Q = 16",
        ),
        (
            ["chartable", "--group", "GL2", "--q", "11", "--method", "dixon"],
            "--q, --method: group order 13200 exceeds the budget DIXON_ORDER_BUDGET = 10000",
        ),
        (["tjd", "--p", "4", "--k", "2", "--matrix", "[[1]]"], "--p: p must be prime"),
        (
            ["tjd", "--p", _PAST_PRIME_BOUND, "--k", "1", "--matrix", "[[2]]"],
            f"--p: primality of {_PAST_PRIME_BOUND} is decided only below PRIME_BOUND = 3317044064679887385961981",
        ),
        (["tjd", "--p", "5", "--k", "0", "--matrix", "[[1]]"], "--k: precision must be a positive integer"),
        (
            ["tjd", "--p", "5", "--k", "100", "--matrix", "[[1]]"],
            "--k: precision k = 100 exceeds the budget PRECISION_BUDGET = 64",
        ),
        (["tjd", "--p", "5", "--k", "2", "--matrix", "[[5]]"], "--matrix: gamma is not invertible modulo p"),
        (["tjd", "--p", "5", "--k", "2", "--matrix", "[[1,2]]"], "--matrix: rows must form an n x n matrix"),
        (["tjd", "--p", "5", "--k", "2", "--matrix", "[]"], "--matrix: rows must form an n x n matrix with n >= 1"),
        (
            ["tjd", "--p", "5", "--k", "1", "--matrix", _IDENTITY_9],
            "--p, --matrix: order bound 1953124 exceeds the budget ORDER_BUDGET = 1000000",
        ),
        # a singular matrix past the budget gets the budget's refusal, checked first
        (
            ["tjd", "--p", "3", "--k", "1", "--matrix", _ZERO_13],
            "--p, --matrix: order bound 1594322 exceeds the budget ORDER_BUDGET = 1000000",
        ),
        (["tori", "h1", "--frobenius", "[[1,0],[0]]"], "--frobenius: ragged rows"),
        (
            ["tori", "pair", "--frobenius", "[[1,0],[0]]", "--inv", "[]", "--kappa", "[]"],
            "--frobenius: ragged rows",
        ),
        (
            ["tori", "h1", "--frobenius", _IDENTITY_9],
            "--frobenius: frobenius rank 9 exceeds the budget RANK_BUDGET = 8",
        ),
        (
            ["tori", "pair", "--frobenius", _IDENTITY_9, "--inv", "[]", "--kappa", "[]"],
            "--frobenius: frobenius rank 9 exceeds the budget RANK_BUDGET = 8",
        ),
        (
            ["tori", "sln-group", "--n", "12", "--m", "2", "--degrees", "[3,3]"],
            "--n: rank 11 exceeds the budget RANK_BUDGET = 8: SL_n's torus has rank n - 1",
        ),
        (
            ["tori", "h1", "--frobenius", _UNIPOTENT_8],
            "--frobenius: frobenius order exceeds the budget FROBENIUS_ORDER_BUDGET = 1000",
        ),
        (["hilbert", "--a", "0", "--b", "3", "--place", "5"], "--a, --b: arguments must be nonzero"),
        (["hilbert", "--a", "2", "--b", "3", "--place", "4"], "--place: place must be a prime or 'inf'"),
        (["hilbert", "--a", "2", "--b", "3", "--place", "x"], "--place: place must be a prime or 'inf'"),
        (
            ["hilbert", "--a", "2", "--b", "3", "--place", _PAST_PRIME_BOUND],
            f"--place: primality of {_PAST_PRIME_BOUND} is decided only below PRIME_BOUND = 3317044064679887385961981",
        ),
        # read exactly; 11 divides it
        (["hilbert", "--a", "2", "--b", "3", "--place", "1" * 5000], "--place: place must be a prime or 'inf'"),
        (
            ["hilbert", "--a", "2", "--b", "3", "--place", "3317044064679887385961981"],
            "--place: primality of 3317044064679887385961981 is decided only below PRIME_BOUND = 3317044064679887385961981",
        ),
        (["endoscopy", "enumerate", "--type", "A9"], "--type: rank 9 exceeds the budget RANK_BUDGET = 8"),
        (
            ["endoscopy", "enumerate", "--type", "A" + "1" * 5000],
            "--type: rank of 5000 digits exceeds the budget RANK_BUDGET = 8",
        ),
        (["endoscopy", "enumerate", "--type", "E5"], "--type: E_n needs rank 6, 7 or 8"),
        # no trailing newline, and ASCII digits only (fullwidth 3, Arabic-Indic 8)
        *(
            (["endoscopy", "enumerate", "--type", bad], f"--type: bad type {bad!r}; expected e.g. A3, C2, E6")
            for bad in ("A2\n", "B\uff13", "E\u0668")
        ),
        (["endoscopy", "enumerate", "--type", "G3"], "--type: G_2 only"),
        (["endoscopy", "estimate", "--type", "A3"], "--type: type A is excluded from the estimate check"),
        (
            ["endoscopy", "from-kappa", "--type", "A2", "--kappa", "[1]"],
            "--kappa: kappa has the wrong length",
        ),
    ],
    ids=[
        "springer-even-q", "chartable-q-budget", "chartable-q-not-prime-power", "chartable-q-budget-first",
        "dixon-budget",
        "tjd-p", "tjd-p-primality", "tjd-k-zero", "tjd-k-cap", "tjd-gamma", "tjd-rows", "tjd-empty", "tjd-order-budget",
        "tjd-order-budget-singular", "tori-h1-ragged", "tori-pair-ragged", "tori-h1-rank", "tori-pair-rank",
        "tori-sln-rank", "tori-frobenius-order",
        "hilbert-zero", "hilbert-place", "hilbert-place-not-numeric", "hilbert-place-primality",
        "hilbert-place-past-int-limit", "hilbert-place-at-prime-bound", "endoscopy-rank-cap",
        "endoscopy-rank-digits", "endoscopy-e5", "endoscopy-type-newline", "endoscopy-type-fullwidth-digit",
        "endoscopy-type-arabic-indic-digit", "endoscopy-g3",
        "endoscopy-estimate-a", "endoscopy-kappa-length",
    ],
)
def test_library_refusal_names_its_flag(argv, message):
    code, out, err = run_cli(argv)
    assert code == 1
    assert json.loads(out) == {"error": message}
    assert err == ""


def test_type_rank_leading_zeros_do_not_count():
    # measured and converted without its leading zeros, past int()'s limit too
    want = run_cli(["endoscopy", "enumerate", "--type", "A1"])
    for rank in ("01", "0" * 5000 + "1"):
        assert run_cli(["endoscopy", "enumerate", "--type", "A" + rank]) == want


# ---------------------------------------------------------------------------
# the text the documents print of a cyclotomic value, memoised by its stored
# form


@pytest.mark.parametrize("a,b,text", ONE_TEXT.values(), ids=ONE_TEXT)
def test_equal_values_of_different_stored_forms_print_one_text(a, b, text):
    assert (a.n, a.den, a.num) != (b.n, b.den, b.num)
    assert a == b
    assert (str(a), str(b), str(a)) == (text, text, text)


def test_stored_forms_that_differ_only_in_the_denominator_print_apart():
    one, half = Cyclotomic.rational(1), Cyclotomic.rational(Fraction(1, 2))
    assert (one.n, one.num) == (half.n, half.num)
    assert [str(v) for v in (one, half, one, half)] == ["1", "1/2", "1", "1/2"]


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


def test_tn_pairing_roots_pairs_and_catches_an_unscaled_pairing(monkeypatch):
    """At every seed the selftest's pairing check reaches tn_pairing, and it
    fails when the pairing drops the n // d_i scaling of each coordinate,
    a map that still takes roots of unity as values."""
    paired = []

    def counted(data, inv, kappa):
        paired.append(inv)
        return tn_pairing(data, inv, kappa)

    def unscaled(data, inv, kappa):
        n = lcm(*data.invariant_factors)
        return Cyclotomic.zeta(n, sum(a * k for a, k in zip(inv, kappa)))

    tn_pairing = cli.tn_pairing
    for seed in range(50):
        paired.clear()
        monkeypatch.setattr(cli, "tn_pairing", counted)
        assert cli._check_tn_pairing_roots(random.Random(seed)), seed
        assert paired, seed
        monkeypatch.setattr(cli, "tn_pairing", unscaled)
        assert not cli._check_tn_pairing_roots(random.Random(seed)), seed


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


@pytest.mark.parametrize("place", ["5", "4"], ids=["document", "refusal"])
def test_out_that_cannot_be_written_prints_one_json_error(place):
    # the document (place 5) and the refusal (place 4) both need the file
    argv = ["hilbert", "--a", "2", "--b", "3", "--place", place, "--out", "/nonexistent/d/x.json"]
    message = "--out: cannot write '/nonexistent/d/x.json': No such file or directory"
    assert run_cli(argv) == (1, json.dumps({"error": message}, indent=2) + "\n", "")
    proc = run_proc(argv)
    assert proc.returncode == 1 and json.loads(proc.stdout) == {"error": message}
    assert "Traceback" not in proc.stderr


class _FullStdout(io.StringIO):
    """A stdout on a full device: every write, or only every flush (a
    buffered stream fails when it flushes), raises ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--a", "2", "--b", "3", "--place", "5"],
        ["hilbert", "--a", "2", "--b", "3", "--place", "4"],
        ["hilbert", "--a", "2", "--b", "3", "--place", "5", "--out", "/nonexistent/d/x.json"],
    ],
    ids=["document", "refusal", "out-error"],
)
def test_stdout_that_cannot_be_written_prints_one_line_on_stderr(argv, failing):
    # stdout cannot carry a JSON error either, so one line goes to stderr
    err = io.StringIO()
    with redirect_stdout(_FullStdout(failing)), redirect_stderr(err):
        code = main(argv)
    assert code == 1
    assert err.getvalue() == "liechar: cannot write to stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_stdout_on_a_full_device_ends_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "liechar.cli", "chartable", "--group", "GL2", "--q", "5"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == "liechar: cannot write to stdout: No space left on device\n"


# x^7 - x - 1 is irreducible mod 7 (an Artin-Schreier polynomial), so its
# companion matrix is semisimple of order 137257 = (7^7 - 1) / 6, just under
# the order bound 7^7 - 1; the linear order searches tjd used to run walked
# all of it twice
_COMPANION_7 = json.dumps([[int(j == 6 and i < 2 or i == j + 1) for j in range(7)] for i in range(7)])


def test_tjd_slowest_accepted_input_prints_the_same_document_quickly():
    # the sha1 is that of the document the order searches printed, in
    # about 15 s
    start = time.perf_counter()
    code, out, err = run_cli(["tjd", "--p", "7", "--k", "64", "--matrix", _COMPANION_7])
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert json.loads(out)["order_r"] == 137257
    assert hashlib.sha1(out.encode()).hexdigest() == "7c93841661f1295fbfb154cfcf365067b5afa6ec"


# x^19 - x^5 - x^2 - x - 1 is x^19 + x^5 + x^2 + x + 1, primitive, mod 2, so
# its companion matrix has order 2^19 - 1 = 524287; 2^19 - 1 is under
# ORDER_BUDGET and 2^20 - 1 past it, so n = 19 is the largest n the budget
# admits at p = 2
_COMPANION_19 = json.dumps(
    [[int(i == j + 1 or j == 18 and i in (0, 1, 2, 5)) for j in range(19)] for i in range(19)]
)


def test_tjd_on_the_largest_companion_the_budget_admits_at_p_2():
    # the sha1 is that of the document printed while the order descent ran
    # over Z/2^64, in about 4 s
    start = time.perf_counter()
    code, out, err = run_cli(["tjd", "--p", "2", "--k", "64", "--matrix", _COMPANION_19])
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert json.loads(out)["order_r"] == 524287
    assert hashlib.sha1(out.encode()).hexdigest() == "498935916d98fa57b6a41be5baef08b70643ce62"


def test_tjd_on_the_largest_matrix_the_budget_admits_at_p_3():
    # 3^12 - 1 is under ORDER_BUDGET and 3^13 - 1 is past it; the sha1 is
    # that of the document printed while invertibility was an integer
    # determinant of the residues
    rng = random.Random(12)
    rows = [[rng.randrange(3**64) for _ in range(12)] for _ in range(12)]
    code, out, err = run_cli(["tjd", "--p", "3", "--k", "64", "--matrix", json.dumps(rows)])
    assert (code, err) == (0, "")
    assert json.loads(out)["order_r"] == 88573
    assert hashlib.sha1(out.encode()).hexdigest() == "c0a03407ed1ce6fb6955dd75de9a1860873dfcf7"


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
_NO_HUGE_FIELD = f"--q: no field F_q with q = {HUGE_PRIME}: q exceeds MAX_Q = 16"


@pytest.mark.parametrize(
    "argv,budget",
    [
        (["springer", "verify", "--group", "GL2", "--q", HUGE_PRIME], _NO_HUGE_FIELD),
        (["chartable", "--group", "SL2", "--q", HUGE_PRIME, "--method", "classical"], _NO_HUGE_FIELD),
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
