"""Command-line front end.

Every subcommand emits a deterministic JSON (or CSV) document: field order
is fixed by construction, sets are sorted before emission, and nothing
time- or host-dependent is written.  Exit codes: 0 on success, 1 when a
verification fails or an input is rejected, 2 for usage errors.  `main` is
the one place that catches a rejected input (a ValueError or
ZeroDivisionError from any subcommand): it writes `{"error": ...}` as JSON,
whatever `--format` is (only `chartable` has the flag), and returns 1. A
rejected argument is named by its flag in the message. A refusal
(`exact_math.Refusal`) carries its subject, the input it refuses: the CLI's
own parsing gives the flag itself, and a library refusal is led by the flag
that `_FLAGS` maps its subject to under the subcommand. A refusal without a
subject, or with one the subcommand does not list, is led by the
subcommand's default flag. No word of the message is read, so its text is
free. Every budget's refusal is written by `exact_math.over_budget`: it
names the budget as "{NAME} = {limit}", most often in "{what} {value}
exceeds the budget {NAME} = {limit}", and writes a value of 10^64 or more
by its digit count.

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

_TYPE_RE = re.compile(r"([A-G])([0-9]+)")


def _parse_type(s):
    m = _TYPE_RE.fullmatch(s)
    if not m:
        raise ValueError(f"bad type {s!r}; expected e.g. A3, C2, E6")
    # measured before int(), which refuses past 4300 digits, leading zeros
    # included, in its own words
    rank = m.group(2).lstrip("0") or "0"
    if len(rank) > len(str(RANK_BUDGET)):
        raise over_budget(None, f"rank of {len(rank)} digits", None, "RANK_BUDGET", RANK_BUDGET)
    return m.group(1), int(rank)


def _parse_json(s, flag):
    """The JSON value of s; a number with a fraction or an exponent stays
    its text, which `_parse_rational` reads exactly (a float would round
    0.10000000000000000001 to 0.1 and 1e-400 to 0)."""
    try:
        return json.loads(s, parse_float=str)
    except json.JSONDecodeError:
        raise Refusal(flag, f"not valid JSON: {s!r}") from None
    except RecursionError:
        raise Refusal(flag, "JSON nested too deeply") from None
    except ValueError:
        # an integer past Python's limit on int <-> str conversion
        raise Refusal(flag, "an integer exceeds Python's 4300-digit conversion limit") from None


# digits a rational argument may spell out, its exponent counted as that many
# digits: Fraction("1eN") forms 10**N, so the text is measured first
RATIONAL_DIGITS = 1000
_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+)")


def _parse_rational(x, flag):
    """A number, or a string such as "1/2", within RATIONAL_DIGITS. Digit
    underscores are refused: Fraction reads them from Python 3.11 on, and
    one argument has one answer on every Python."""
    text = str(x)
    digits = sum(c.isdigit() for c in text)
    exp = _EXPONENT_RE.search(text)
    if exp and digits <= RATIONAL_DIGITS:
        digits += abs(int(exp.group(1)))
    if digits > RATIONAL_DIGITS:
        raise Refusal(
            flag, f"{digits} digits, exponent included, exceed the rational digit budget {RATIONAL_DIGITS}"
        )
    if "_" not in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise Refusal(flag, f"expected a rational such as 1/2, got {x!r}")


def _parse_fraction_list(s, flag):
    """JSON list of rationals, each a number or a string such as "1/2"."""
    items = _parse_json(s, flag)
    if not isinstance(items, list):
        raise Refusal(flag, f"expected a JSON list of rationals, got {s!r}")
    return tuple(_parse_rational(x, flag) for x in items)


def _is_int_list(items):
    return isinstance(items, list) and all(type(x) is int for x in items)


def _parse_int_list(s, flag):
    """JSON list of integers."""
    items = _parse_json(s, flag)
    if not _is_int_list(items):
        raise Refusal(flag, f"expected a JSON list of integers, got {s!r}")
    return tuple(items)


def _parse_int_matrix(s, flag):
    """JSON list of integer rows; the consumer checks that they are square."""
    rows = _parse_json(s, flag)
    if not isinstance(rows, list) or not all(_is_int_list(r) for r in rows):
        raise Refusal(flag, f"expected a JSON matrix of integers, got {s!r}")
    return rows


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
    series, rank = _parse_type(args.type)
    datum = build_root_datum(series, rank, args.isogeny)
    if args.endo_cmd == "enumerate":
        doc = [t.serialize() for t in enumerate_split_elliptic(datum)]
    elif args.endo_cmd == "from-kappa":
        kappa = _parse_fraction_list(args.kappa, "--kappa")
        doc = endoscopic_from_kappa(datum, kappa).serialize()
    else:
        doc = estimate_diagram_check(datum)
    _emit(doc, args)
    return 0


# ---------------------------------------------------------------------------
# twisted tori


def _tn_data(args):
    rows = _parse_int_matrix(args.frobenius, "--frobenius")
    return component_group_pi0(TwistedTorus(len(rows), IntMatrix(rows)))


def _cmd_tori(args):
    if args.tori_cmd == "h1":
        data = _tn_data(args)
        doc = {
            "rank": data.torus.rank,
            "frobenius_order": data.torus.order,
            "h1": data.h1.serialize(),
            "invariant_factors": list(data.invariant_factors),
        }
    elif args.tori_cmd == "pair":
        data = _tn_data(args)
        inv = _parse_int_list(args.inv, "--inv")
        kappa = _parse_int_list(args.kappa, "--kappa")
        val = tn_pairing(data, inv, kappa)
        doc = {
            "inv": list(inv),
            "kappa": list(kappa),
            "value": str(val),
            "conductor": val.n,
        }
    else:
        degrees = _parse_int_list(args.degrees, "--degrees")
        group, witnesses = sln_kappa_group(args.n, args.m, degrees)
        doc = {
            "n": args.n,
            "m": args.m,
            "degrees": list(degrees),
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
    rows = _parse_int_matrix(args.matrix, "--matrix")
    m = TruncatedMatrix(len(rows), args.p, args.k, rows)
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
    a = _parse_rational(args.a, "--a")
    b = _parse_rational(args.b, "--b")
    sym = hilbert_symbol(a, b, args.place)
    doc = {"a": args.a, "b": args.b, "place": args.place, "symbol": sym}
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
    inverse must pivot past it."""
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
        if m.mul(m.inverse()) != TruncatedMatrix.identity(2, p, k):
            return False
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


def _cmd_selftest(args):
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


def _add_common(p):
    p.add_argument("--out", default=None, help="write the document to a file")


def build_parser():
    ap = argparse.ArgumentParser(prog="liechar")
    sub = ap.add_subparsers(dest="cmd", required=True)

    endo = sub.add_parser("endoscopy", help="split endoscopic data")
    esub = endo.add_subparsers(dest="endo_cmd", required=True)
    for name in ("enumerate", "from-kappa", "estimate"):
        p = esub.add_parser(name)
        p.add_argument("--type", required=True, help="Cartan type, e.g. C2")
        p.add_argument("--isogeny", default="sc", choices=["sc", "ad"])
        if name == "from-kappa":
            p.add_argument("--kappa", required=True, help='JSON list, e.g. \'["1/2", 0]\'')
        _add_common(p)
        p.set_defaults(fn=_cmd_endoscopy)

    tori = sub.add_parser("tori", help="twisted tori and kappa groups")
    tsub = tori.add_subparsers(dest="tori_cmd", required=True)
    p = tsub.add_parser("h1")
    p.add_argument("--frobenius", required=True, help="JSON integer matrix")
    _add_common(p)
    p.set_defaults(fn=_cmd_tori)
    p = tsub.add_parser("pair")
    p.add_argument("--frobenius", required=True)
    p.add_argument("--inv", required=True, help="JSON list of h1 coordinates")
    p.add_argument("--kappa", required=True, help="JSON list of pi0 coordinates")
    _add_common(p)
    p.set_defaults(fn=_cmd_tori)
    p = tsub.add_parser("sln-group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--degrees", required=True, help="JSON list of block degrees")
    _add_common(p)
    p.set_defaults(fn=_cmd_tori)

    spr = sub.add_parser("springer", help="verify the trace identity")
    ssub = spr.add_subparsers(dest="springer_cmd", required=True)
    p = ssub.add_parser("verify")
    p.add_argument("--group", required=True, choices=["SL2", "GL2"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--all", action="store_true", help="every unipotent class")
    _add_common(p)
    p.set_defaults(fn=_cmd_springer)

    p = sub.add_parser("chartable", help="exact character table")
    p.add_argument("--group", required=True, choices=["SL2", "GL2"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--method", default="dixon", choices=["dixon", "classical"])
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    _add_common(p)
    p.set_defaults(fn=_cmd_chartable)

    p = sub.add_parser("tjd", help="topological Jordan decomposition")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--matrix", required=True, help="JSON integer matrix")
    _add_common(p)
    p.set_defaults(fn=_cmd_tjd)

    p = sub.add_parser("hilbert", help="local Hilbert symbol")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--place", required=True, help="a prime or 'inf'")
    _add_common(p)
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("selftest", help="run the invariant battery")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_selftest)

    return ap


@lru_cache(maxsize=None)
def _parser():
    """The parser of this process, built on the first `main` call, so that
    importing the module does not pay for it."""
    return build_parser()


# the flag that set each subject a library refusal names, by subcommand; None
# keys the subcommand's default, for a refusal without a subject or with a
# subject the subcommand does not list
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
    subject: a flag itself when the CLI's own parsing refused it, else the
    one `_FLAGS` maps the subject to."""
    subject, flags = getattr(e, "subject", None), _FLAGS.get(cmd, {})
    flag = subject if str(subject).startswith("--") else flags.get(subject, flags.get(None))
    return str(e) if flag is None else f"{flag}: {e}"


def _error_text(message):
    return json.dumps({"error": message}, indent=2) + "\n"


def _run(args):
    try:
        try:
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
