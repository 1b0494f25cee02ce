"""Command-line front end.

Every subcommand emits a deterministic JSON (or CSV) document: field order
is fixed by construction, sets are sorted before emission, and nothing
time- or host-dependent is written.  Exit codes: 0 on success, 1 when a
verification fails or an input is rejected, 2 for usage errors, which are
errors of structure only: an unknown subcommand or flag, a missing required
flag, or a choice outside its list.

Every flag reads one kind of value, and `FLAG_KINDS` gives the kind of
every flag of every subcommand; `build_parser` builds the parser from it.
Each kind has one reader, and every kind reads ASCII digits only, with no
digit underscores and no whitespace around the value:

- integer: decimal digits after an optional + or -, leading zeros allowed,
  read exactly past Python's 4300-digit conversion limit;
- Cartan type: a letter A-G and the rank's digits, e.g. C2;
- rational: a number such as 1/2, -0.5 or 1e-3 in Fraction's grammar,
  within RATIONAL_DIGITS digits, the exponent counted;
- rational list: a JSON list whose items are rationals, as numbers or as
  strings;
- integer list, integer matrix: a JSON list of integers, a JSON list of
  such lists;
- place: "inf", or decimal digits with no sign;
- choice: one of the values argparse lists; switch: a flag with no value.

Every value is read in one step, inside the error boundary of `_run`: a
text that its kind refuses is a refusal led by its flag, exit 1, like any
other rejected input.  `main` is the one place that catches a rejected
input (a ValueError or ZeroDivisionError from reading a value or from any
subcommand): it writes `{"error": ...}` as JSON, whatever `--format` is
(only `chartable` has the flag), and returns 1. A rejected argument is
named by its flag in the message. A refusal (`exact_math.Refusal`) carries
its subject, the input it refuses: the CLI's own reading gives the flag
itself, and a library refusal is led by the flag that `_FLAGS` maps its
subject to under the subcommand. A library refusal without a subject, or
with one the subcommand does not list, is led by the subcommand's default
flag. No word of the message is read, so its text is free. Every budget's
refusal is written by `exact_math.over_budget`: it names the budget as
"{NAME} = {limit}", most often in "{what} {value} exceeds the budget {NAME}
= {limit}", and writes a value of 10^64 or more by its digit count.

When the file that `--out` names cannot be written, the document, or the
refusal, is replaced by one `{"error": "--out: ..."}` on stdout, and the
exit code is 1. When stdout cannot be written (a full device, a closed
pipe), nothing can carry a JSON error: one line goes to stderr instead, and
the exit code is 1.

`main(argv)` may be called repeatedly in one process. It builds its parser
with `build_parser()` on the first call and reuses it afterwards; each call
parses into a fresh namespace, so no flag carries over from an earlier call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .dl_spectra import (
    character_table_dixon,
    classical_table_oracle,
    dl_jordan_reduction_check,
    nonsingular_characters,
    springer_check,
    springer_fourier_reference,
    springer_grid,
    tables_match,
)
from .endoscopy import (
    endoscopic_from_kappa,
    enumerate_split_elliptic,
    estimate_diagram_check,
)
from .exact_math import (
    Cyclotomic, IntMatrix, Refusal, jordan_exponent, order_from_multiple, over_budget, power, prime_factors,
    smallest_conductor,
)
from .finite_lie import (
    build_finite_group,
    is_strongly_regular,
    tori_and_regularity,
)
from .galois_tori import TwistedTorus, component_group_pi0, sln_kappa_group, tn_pairing
from .padic import (
    DiagQuadForm,
    TruncatedMatrix,
    hasse_invariant,
    hilbert_symbol,
    order_multiple,
    quasi_log_bijection_check,
    relevant_places,
    topological_jordan,
)
from .root_datum import RANK_BUDGET, build_root_datum

# ---------------------------------------------------------------------------
# argument grammar: one reader per kind of value, and the kind of every flag


def _decimal(digits):
    """The value of a string of ASCII digits, read exactly past Python's
    4300-digit conversion limit too: int() of 600-digit slices (below 640,
    the least limit Python can be set to), so that the library refuses a
    huge value by its budget's name."""
    value = 0
    for i in range(0, len(digits), 600):
        part = digits[i : i + 600]
        value = value * 10 ** len(part) + int(part)
    return value


_INTEGER_RE = re.compile(r"([-+]?)([0-9]+)")


def _read_integer(text):
    m = _INTEGER_RE.fullmatch(text)
    if not m:
        raise ValueError(f"expected an integer, got {text!r}")
    return (-1 if m.group(1) == "-" else 1) * _decimal(m.group(2))


def _read_place(text):
    """"inf", or the value of an ASCII decimal; `hilbert_symbol` decides
    whether it is a prime."""
    if text != "inf" and not (text.isascii() and text.isdigit()):
        raise ValueError("place must be a prime or 'inf'")
    return text if text == "inf" else _decimal(text)


_TYPE_RE = re.compile(r"([A-G])([0-9]+)")


def _read_type(text):
    m = _TYPE_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad type {text!r}; expected e.g. A3, C2, E6")
    # measured before int(), which refuses past 4300 digits, leading zeros
    # included, in its own words
    rank = m.group(2).lstrip("0") or "0"
    if len(rank) > len(str(RANK_BUDGET)):
        raise over_budget(None, f"rank of {len(rank)} digits", None, "RANK_BUDGET", RANK_BUDGET)
    return m.group(1), int(rank)


# digits a rational argument may spell out, its exponent counted as that many
# digits: Fraction("1eN") forms 10**N, so the text is measured first
RATIONAL_DIGITS = 1000
_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+)")
_RATIONAL_RE = re.compile(r"[-+0-9./eE]+")


def _read_rational(x):
    """A number, or a string such as "1/2", in Fraction's grammar over the
    ASCII characters -+0123456789./eE (no whitespace, and no digit
    underscores, which Fraction reads from Python 3.11 on), then within
    RATIONAL_DIGITS."""
    text = str(x)
    if _RATIONAL_RE.fullmatch(text):
        digits = sum(c.isdigit() for c in text)
        exp = _EXPONENT_RE.search(text)
        if exp and digits <= RATIONAL_DIGITS:
            digits += abs(int(exp.group(1)))
        if digits > RATIONAL_DIGITS:
            raise ValueError(f"{digits} digits, exponent included, exceed the rational digit budget {RATIONAL_DIGITS}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected a rational such as 1/2, got {x!r}")


_JSON = json.JSONDecoder(parse_float=str)


def _read_json(text):
    """The JSON value of text, with no whitespace around it; a number with
    a fraction or an exponent stays its text, which `_read_rational` reads
    exactly (a float would round 0.10000000000000000001 to 0.1 and 1e-400
    to 0)."""
    try:
        value, end = _JSON.raw_decode(text)
    except json.JSONDecodeError:
        end = None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except ValueError:  # an integer past Python's limit on int <-> str conversion
        raise ValueError("an integer exceeds Python's 4300-digit conversion limit") from None
    if end != len(text):
        raise ValueError(f"not valid JSON: {text!r}")
    return value


def _read_rational_list(text):
    items = _read_json(text)
    if not isinstance(items, list):
        raise ValueError(f"expected a JSON list of rationals, got {text!r}")
    return tuple(_read_rational(x) for x in items)


def _is_int_list(items):
    return isinstance(items, list) and all(type(x) is int for x in items)


def _read_integer_list(text):
    items = _read_json(text)
    if not _is_int_list(items):
        raise ValueError(f"expected a JSON list of integers, got {text!r}")
    return tuple(items)


def _read_integer_matrix(text):
    """Integer rows; the consumer checks that they are square."""
    rows = _read_json(text)
    if not isinstance(rows, list) or not all(_is_int_list(r) for r in rows):
        raise ValueError(f"expected a JSON matrix of integers, got {text!r}")
    return rows


class Kind(NamedTuple):
    """A kind of flag value: the help of its flags; the reader that maps a
    flag's text to its value or raises ValueError (None: the text is the
    value); and the structure argparse keeps, its `add_argument` keywords."""

    name: str
    help: str
    read: object = None
    structure: dict = {"required": True}


INTEGER = Kind("integer", "an integer: ASCII digits after an optional sign", _read_integer)
CARTAN_TYPE = Kind("Cartan type", "a Cartan type, e.g. C2", _read_type)
RATIONAL = Kind("rational", "a rational, e.g. 1/2, -0.5 or 1e-3", _read_rational)
RATIONAL_LIST = Kind("rational list", "a JSON list of rationals, e.g. '[\"1/2\", 0]'", _read_rational_list)
INTEGER_LIST = Kind("integer list", "a JSON list of integers", _read_integer_list)
INTEGER_MATRIX = Kind("integer matrix", "a JSON list of integer rows", _read_integer_matrix)
PLACE = Kind("place", "a prime in ASCII digits, or 'inf'", _read_place)
SWITCH = Kind("switch", "on when given", structure={"action": "store_true"})


def _choice(*choices, default=None):
    """One of choices, required unless it has a default."""
    structure = {"choices": choices, "default": default, "required": default is None}
    return Kind("choice", "one of the values in braces", structure=structure)


_ISOGENY = _choice("sc", "ad", default="sc")
_GROUP = _choice("SL2", "GL2")

# the kind of every flag of every subcommand; each subcommand also takes
# --out, the path of a file to write the document to
FLAG_KINDS = {
    "endoscopy enumerate": {"--type": CARTAN_TYPE, "--isogeny": _ISOGENY},
    "endoscopy from-kappa": {"--type": CARTAN_TYPE, "--isogeny": _ISOGENY, "--kappa": RATIONAL_LIST},
    "endoscopy estimate": {"--type": CARTAN_TYPE, "--isogeny": _ISOGENY},
    "tori h1": {"--frobenius": INTEGER_MATRIX},
    "tori pair": {"--frobenius": INTEGER_MATRIX, "--inv": INTEGER_LIST, "--kappa": INTEGER_LIST},
    "tori sln-group": {"--n": INTEGER, "--m": INTEGER, "--degrees": INTEGER_LIST},
    "springer verify": {"--group": _GROUP, "--q": INTEGER, "--all": SWITCH},
    "chartable": {
        "--group": _GROUP,
        "--q": INTEGER,
        "--method": _choice("dixon", "classical", default="dixon"),
        "--format": _choice("json", "csv", default="csv"),
    },
    "tjd": {"--p": INTEGER, "--k": INTEGER, "--matrix": INTEGER_MATRIX},
    "hilbert": {"--a": RATIONAL, "--b": RATIONAL, "--place": PLACE},
    "selftest": {"--seed": INTEGER._replace(structure={"default": "0"})},
}


def _read(args):
    """Replace the text of every flag of args' subcommand by its value, read
    by the flag's kind, and keep the texts in `args.texts`, which a document
    may echo. A text that its kind refuses is a Refusal whose subject is
    the flag."""
    args.texts = {}
    for flag, kind in FLAG_KINDS[args.command].items():
        dest = flag[2:]
        args.texts[dest] = text = getattr(args, dest)
        if kind.read:
            try:
                setattr(args, dest, kind.read(text))
            except ValueError as e:
                raise Refusal(flag, str(e)) from None


def _emit(doc, args, rows=None, header=None):
    """Serialize and write to stdout or --out: as JSON, or as CSV when the
    subcommand gives rows and --format (only `chartable` has it) asks."""
    if rows is not None and args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        _write(buf.getvalue(), args)
    else:
        _write(json.dumps(doc, indent=2) + "\n", args)


class _OutError(Exception):
    """The file that --out names cannot be written."""


class _StdoutError(Exception):
    """Stdout cannot be written, so it cannot carry a JSON error either."""


def _stdout(text):
    """Write text to stdout and flush it, so that a failed write raises
    here, not at exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        raise _StdoutError(f"cannot write to stdout: {e.strerror or e}") from None


def _write(text, args):
    if not args.out:
        _stdout(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise _OutError(f"--out: cannot write {args.out!r}: {e.strerror or e}") from None


# ---------------------------------------------------------------------------
# endoscopy


def _cmd_endoscopy(args):
    datum = build_root_datum(*args.type, args.isogeny)
    if args.sub == "enumerate":
        doc = [t.serialize() for t in enumerate_split_elliptic(datum)]
    elif args.sub == "from-kappa":
        doc = endoscopic_from_kappa(datum, args.kappa).serialize()
    else:
        doc = estimate_diagram_check(datum)
    _emit(doc, args)
    return 0


# ---------------------------------------------------------------------------
# twisted tori


def _tn_data(args):
    return component_group_pi0(TwistedTorus(len(args.frobenius), IntMatrix(args.frobenius)))


def _cmd_tori(args):
    if args.sub == "h1":
        data = _tn_data(args)
        doc = {
            "rank": data.torus.rank,
            "frobenius_order": data.torus.order,
            "h1": data.h1.serialize(),
            "invariant_factors": list(data.invariant_factors),
        }
    elif args.sub == "pair":
        val = tn_pairing(_tn_data(args), args.inv, args.kappa)
        doc = {
            "inv": list(args.inv),
            "kappa": list(args.kappa),
            "value": str(val),
            # the d of the text's cycD[...], 1 for a rational
            "conductor": smallest_conductor(val)[0],
        }
    else:
        group, witnesses = sln_kappa_group(args.n, args.m, args.degrees)
        doc = {
            "n": args.n,
            "m": args.m,
            "degrees": list(args.degrees),
            "group": group.serialize(),
            "witnesses": [
                {"twist": list(t), "class": list(c)} for t, c in witnesses
            ],
        }
    _emit(doc, args)
    return 0


# ---------------------------------------------------------------------------
# springer verify


def _springer_cells(kind, q, all_u):
    """One cell per (torus, nonsingular theta): every strongly regular point
    of the torus, the chosen unipotent classes, read off one
    `springer_grid` per torus; sorted by (torus, theta)."""
    g = build_finite_group(kind, q)
    cells = []
    for torus in tori_and_regularity(g):
        sr = [t for t in torus.lie_points() if is_strongly_regular(g, t)]
        thetas = nonsingular_characters(torus)
        classes, _, _, equal = springer_grid(torus, thetas, sr, all_u)
        for theta, rows in zip(thetas, equal):
            cells.append(
                {
                    "torus": torus.tag,
                    "theta": list(theta.exps),
                    "strongly_regular_points": len(sr),
                    "unipotent_classes": sorted(classes) if sr else [],
                    "pass": all(map(all, rows)),
                }
            )
    cells.sort(key=lambda c: (c["torus"], c["theta"]))
    return cells


def _cmd_springer(args):
    cells = _springer_cells(args.group, args.q, args.all)
    doc = {
        "group": args.group,
        "q": args.q,
        "all_unipotent": bool(args.all),
        "cells": cells,
        "pass": all(c["pass"] for c in cells),
    }
    _emit(doc, args)
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------------------
# character tables


def _cmd_chartable(args):
    if args.method == "dixon":
        table = character_table_dixon(build_finite_group(args.group, args.q))
    else:
        table = classical_table_oracle(args.group, args.q)
    cd = table.classes
    texts = [[str(v) for v in row.values] for row in table.rows]
    order = sorted(
        range(len(table.rows)), key=lambda i: (table.degrees[i], texts[i])
    )
    header = ["degree"] + [
        f"class{ci}_size{cd.sizes[ci]}" for ci in range(cd.count)
    ]
    rows = [[str(table.degrees[i])] + texts[i] for i in order]
    doc = {
        "group": args.group,
        "q": args.q,
        "method": args.method,
        "order": cd.group_order,
        "class_sizes": list(cd.sizes),
        "rows": [
            {"degree": table.degrees[i], "values": texts[i]}
            for i in order
        ],
    }
    _emit(doc, args, rows=rows, header=header)
    return 0


# ---------------------------------------------------------------------------
# p-adic commands


def _cmd_tjd(args):
    m = TruncatedMatrix(len(args.matrix), args.p, args.k, args.matrix)
    delta, u = topological_jordan(m)
    # topological_jordan checked delta^r = 1 for r = lcm(p^d - 1, d <= n), the
    # prime-to-p part of the order multiple; each p^d - 1 is at most the
    # order bound p^n - 1 <= ORDER_BUDGET, so trial division factors it
    r, _ = jordan_exponent(order_multiple(m.n, m.p, m.k), m.p)
    primes = {ell for d in range(1, m.n + 1) for ell in prime_factors(m.p**d - 1)}
    # delta's order is prime to p and the kernel of GL_n(Z/p^k) -> GL_n(F_p)
    # is a p-group, so delta has the order of its reduction mod p: the
    # descent runs over F_p
    delta_p = TruncatedMatrix(m.n, m.p, 1, delta.rows)
    ident = TruncatedMatrix.identity(m.n, m.p, 1)
    doc = {
        "p": args.p,
        "k": args.k,
        "delta": [list(row) for row in delta.rows],
        "u": [list(row) for row in u.rows],
        "order_r": order_from_multiple(TruncatedMatrix.mul, ident, delta_p, r, primes),
    }
    _emit(doc, args)
    return 0


def _cmd_hilbert(args):
    # the document echoes the texts of --a, --b and --place
    doc = {**args.texts, "symbol": hilbert_symbol(args.a, args.b, args.place)}
    _emit(doc, args)
    return 0


# ---------------------------------------------------------------------------
# selftest battery


def _check_endoscopy_sp4():
    d = build_root_datum("C", 2, "sc")
    ts = enumerate_split_elliptic(d)
    types = sorted((t.ord_s, t.h_type) for t in ts)
    return len(ts) == 2 and types[0][0] == 1 and types[1] == (2, "A1+A1")


def _check_endoscopy_g2():
    ts = enumerate_split_elliptic(build_root_datum("G", 2, "sc"))
    return sorted(t.ord_s for t in ts) == [1, 2, 3]


def _check_estimate_e6():
    rep = estimate_diagram_check(build_root_datum("E", 6, "sc"))
    large = rep["large_nonspecial_orbits"]
    return (
        len(large) == 1
        and large[0]["ord_s"] == 2
        and rep["center_order"] == 3
    )


def _check_sln_closure():
    for n, m, degs in [(4, 2, (1, 1)), (4, 2, (2,)), (6, 3, (2,)), (6, 2, (1, 1, 1))]:
        sln_kappa_group(n, m, degs)
    return True


def _check_tn_norm_one():
    tor = TwistedTorus(1, IntMatrix([[-1]]))
    return list(component_group_pi0(tor).invariant_factors) == [2]


def _check_tn_pairing_roots(rng):
    """The pairing on the sum of the cyclic shifts of two sum-zero lattices
    of sizes a | b, whose H^1 is Z/a + Z/b: at every pi0 character, every
    value is an e-th root of unity, e the largest invariant factor, and the
    pairing is multiplicative in the H^1 class (checked against each unit
    vector, so that a coordinate wraps around its own factor)."""

    def shift(s):
        # x^i -> x^(i + 1) on Z[x] / (1 + x + ... + x^(s - 1))
        return [[(i == j + 1) - (j == s - 2) for j in range(s - 1)] for i in range(s - 1)]

    a, b = rng.choice([(2, 4), (2, 6), (3, 6)])
    rows = [r + [0] * (b - 1) for r in shift(a)] + [[0] * (a - 1) + r for r in shift(b)]
    data = component_group_pi0(TwistedTorus(a + b - 2, IntMatrix(rows)))
    d = data.invariant_factors
    elements = list(product(*(range(di) for di in d)))
    units = [tuple(int(i == j) for i in range(len(d))) for j in range(len(d))]
    for kap in elements:
        vals = {x: tn_pairing(data, x, kap) for x in elements}
        for x, val in vals.items():
            if power(Cyclotomic.__mul__, None, val, d[-1]) != 1:
                return False
            if any(vals[data.h1.add(x, u)] != val * vals[u] for u in units):
                return False
    return True


def _check_qlog(kind):
    return quasi_log_bijection_check(kind, 3, 1)["pass"]


def _check_tjd_random(rng):
    """Ten invertible 2x2 matrices mod 3^3, then one mod p^k for each p in
    (2, 5, 7) and k <= 4 whose leading entry is divisible by p, so that the
    invertibility test must pivot past it."""
    rings = [(3, 3, False)] * 10 + [(p, k, True) for p in (2, 5, 7) for k in range(1, 5)]
    for p, k, non_unit in rings:
        mod = p**k
        while True:
            rows = [[rng.randrange(mod) for _ in range(2)] for _ in range(2)]
            if non_unit:
                rows[0][0] = p * rng.randrange(mod // p)
            m = TruncatedMatrix(2, p, k, rows)
            if m.is_invertible():
                break
        delta, u = topological_jordan(m)
        if delta.mul(u) != m:
            return False
    return True


def _check_reciprocity(rng):
    for _ in range(50):
        a = Fraction(rng.randrange(-30, 31) or 1, rng.randrange(1, 20))
        b = Fraction(rng.randrange(-30, 31) or 1, rng.randrange(1, 20))
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        if prod != 1:
            return False
    return hasse_invariant(DiagQuadForm([-1, -1]), 2) == -1


def _check_dixon_sl2_3():
    """Each table passes its own orthogonality check before the two are
    compared; `verify` raises on a failure."""
    dixon = character_table_dixon(build_finite_group("SL2", 3))
    classical = classical_table_oracle("SL2", 3)
    return dixon.verify() and classical.verify() and tables_match(dixon, classical)


def _check_springer_sl2_3():
    cells = _springer_cells("SL2", 3, True)
    return bool(cells) and all(c["pass"] for c in cells)


def _check_springer_fourier_sl2_3():
    """The orbit sums of springer_check against the Fourier transform's
    defining sum, at the identity and the regular unipotent."""
    g = build_finite_group("SL2", 3)
    torus = next(t for t in tori_and_regularity(g) if t.tag == "elliptic")
    theta = nonsingular_characters(torus)[0]
    t = next(t for t in torus.lie_points() if is_strongly_regular(g, t))
    cases = springer_check(g, torus, theta, t, all_unipotent=True)["cases"]
    reps = g.unipotent_class_reps()[:2]
    return all(c["rhs"] == springer_fourier_reference(g, t, u) for u, c in zip(reps, cases))


def _check_dl_jordan_gl2_3():
    g = build_finite_group("GL2", 3)
    ok = True
    for torus in tori_and_regularity(g):
        for theta in nonsingular_characters(torus):
            for gamma in g.elements[:: max(1, len(g.elements) // 8)]:
                rep = dl_jordan_reduction_check(g, torus, theta, gamma)
                ok = ok and rep["pass"]
    return ok


# digits a seed may have: its document echoes it, and str() refuses an int
# past 4300 digits on the Pythons that limit the conversion
SEED_DIGITS = 4300


def _cmd_selftest(args):
    if abs(args.seed) >= 10**SEED_DIGITS:
        raise over_budget("--seed", "seed", args.seed, "SEED_DIGITS", SEED_DIGITS)
    rng = random.Random(args.seed)
    battery = [
        ("endoscopy_sp4", _check_endoscopy_sp4),
        ("endoscopy_g2", _check_endoscopy_g2),
        ("estimate_e6", _check_estimate_e6),
        ("sln_group_closure", _check_sln_closure),
        ("tn_norm_one_torus", _check_tn_norm_one),
        ("tn_pairing_roots", lambda: _check_tn_pairing_roots(rng)),
        ("qlog_sl2_3_1", lambda: _check_qlog("SL2")),
        ("qlog_gl2_3_1", lambda: _check_qlog("GL2")),
        ("tjd_random", lambda: _check_tjd_random(rng)),
        ("hilbert_reciprocity", lambda: _check_reciprocity(rng)),
        ("dixon_vs_classical_sl2_3", _check_dixon_sl2_3),
        ("springer_sl2_3", _check_springer_sl2_3),
        ("springer_fourier_sl2_3", _check_springer_fourier_sl2_3),
        ("dl_jordan_gl2_3", _check_dl_jordan_gl2_3),
    ]
    checks = []
    for name, fn in battery:
        try:
            ok = bool(fn())
            detail = ""
        except Exception as e:  # a crash is a failure, not an abort
            ok = False
            detail = f"{type(e).__name__}: {e}"
        checks.append({"name": name, "pass": ok, "detail": detail})
    doc = {
        "seed": args.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    _emit(doc, args)
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------------------
# parser


# the help of each subcommand and the function that runs it
_COMMANDS = {
    "endoscopy": ("split endoscopic data", _cmd_endoscopy),
    "tori": ("twisted tori and kappa groups", _cmd_tori),
    "springer": ("verify the trace identity", _cmd_springer),
    "chartable": ("exact character table", _cmd_chartable),
    "tjd": ("topological Jordan decomposition", _cmd_tjd),
    "hilbert": ("local Hilbert symbol", _cmd_hilbert),
    "selftest": ("run the invariant battery", _cmd_selftest),
}


def build_parser():
    """One parser per entry of FLAG_KINDS, a two-word subcommand under its
    first word. argparse holds the structure only, the flags with their
    choices and defaults, and reads no value: `_read` does."""
    ap = argparse.ArgumentParser(prog="liechar")
    top = ap.add_subparsers(dest="cmd", required=True)
    nested = {}
    for command, flags in FLAG_KINDS.items():
        cmd, _, leaf = command.partition(" ")
        help_, fn = _COMMANDS[cmd]
        if leaf and cmd not in nested:
            nested[cmd] = top.add_parser(cmd, help=help_).add_subparsers(dest="sub", required=True)
        p = nested[cmd].add_parser(leaf) if leaf else top.add_parser(cmd, help=help_)
        for flag, kind in flags.items():
            p.add_argument(flag, help=kind.help, **kind.structure)
        p.add_argument("--out", default=None, help="write the document to a file")
        p.set_defaults(fn=fn, command=command)
    return ap


@lru_cache(maxsize=None)
def _parser():
    """The parser of this process, built on the first `main` call, so that
    importing the module does not pay for it."""
    return build_parser()


# the flag that set each subject a library refusal names, by subcommand; None
# keys the subcommand's default, for a library refusal without a subject or
# with a subject the subcommand does not list. A refusal of the CLI's own
# has its flag as its subject, so no flag is a key here
_FLAGS = {
    "tori": {
        "h1": "--inv", "pi0": "--kappa", "degrees": "--degrees", "frobenius": "--frobenius",
        "ragged": "--frobenius", "n": "--n, --m", "rank": "--n", "twist": "--m, --degrees",
    },
    "springer": {None: "--q"},
    "chartable": {None: "--q", "group": "--q, --method"},
    "endoscopy": {None: "--type", "kappa": "--kappa"},
    "tjd": {
        "p": "--p", "primality": "--p", "precision": "--k", "rows": "--matrix",
        "gamma": "--matrix", "order": "--p, --matrix",
    },
    "hilbert": {"arguments": "--a, --b", "place": "--place", "primality": "--place"},
}


def _flagged(cmd, e):
    """The message of a rejected input e, led by the flag that set its
    subject: a flag itself when the CLI refused it (a value its kind
    refuses, or the seed's budget), else the one `_FLAGS` maps the subject
    to."""
    subject, flags = getattr(e, "subject", None), _FLAGS.get(cmd, {})
    flag = subject if str(subject).startswith("--") else flags.get(subject, flags.get(None))
    return str(e) if flag is None else f"{flag}: {e}"


def _error_text(message):
    return json.dumps({"error": message}, indent=2) + "\n"


def _run(args):
    try:
        try:
            _read(args)
            return args.fn(args)
        except (ValueError, ZeroDivisionError) as e:
            _write(_error_text(_flagged(args.cmd, e)), args)
            return 1
    except _OutError as e:  # the document or the refusal had nowhere to go
        _stdout(_error_text(str(e)))
        return 1


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except _StdoutError as e:  # no document can be written: one line on stderr
        sys.stderr.write(f"liechar: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
