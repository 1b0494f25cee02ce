"""Refusals carry their subject, and every budget is refused by one writer.

A library refusal is an `exact_math.Refusal` whose subject is the input it
refuses; the CLI names the flag that set it through `cli._FLAGS`, which maps
subjects to flags, and reads no word of the message. A budget's or a bound's
refusal is written by `exact_math.over_budget`, which writes a value of
10^64 or more by its digit count, so a huge input is refused by its budget's
name and not by Python's limit on int-to-str conversion (4300 digits).
"""

import ast
import re
import time
from pathlib import Path

import pytest

from liechar import cli
from liechar.exact_math import FiniteField, IntMatrix, Refusal, int_text, is_prime, over_budget, powers
from liechar.finite_lie import build_finite_group
from liechar.galois_tori import TwistedTorus, sln_kappa_group
from liechar.root_datum import build_root_datum

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "liechar"
BUDGET_NAME = re.compile(r"\b(?:[A-Z_]*_(?:BUDGET|BOUND)|MAX_Q)\b")

HUGE = 10**5000
# the least number past 10^5000 prime to every Miller-Rabin base, so that
# neither is_prime nor the factoring of q finds a small factor
HUGE_ODD = next(
    n for n in range(HUGE, HUGE + 10**4) if all(n % b for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
)


@pytest.mark.parametrize(
    "call,budget",
    [
        (lambda: build_root_datum("A", HUGE, "sc"), "RANK_BUDGET"),
        (lambda: TwistedTorus(HUGE, IntMatrix([[1]])), "RANK_BUDGET"),
        (lambda: powers(lambda a, b: a * b, 1, 2, HUGE), "ORDER_BUDGET"),
        (lambda: is_prime(HUGE_ODD), "PRIME_BOUND"),
        (lambda: sln_kappa_group(2 * HUGE, 2, [HUGE]), "RANK_BUDGET"),
        (lambda: build_finite_group("GL2", HUGE_ODD), "MAX_Q"),
        (lambda: FiniteField(HUGE + 3), "MAX_Q"),
    ],
    ids=["root-datum-rank", "torus-rank", "powers-order", "is-prime", "sln-rank", "finite-group-q", "field-q"],
)
def test_a_huge_value_is_refused_by_its_budget_by_name(call, budget):
    start = time.perf_counter()
    with pytest.raises(Refusal) as info:
        call()
    assert time.perf_counter() - start < 1
    text = str(info.value)
    assert budget in text and "4300" not in text
    assert "<5001 digits>" in text


@pytest.mark.parametrize(
    "args,text",
    [
        ((HUGE, 20), "no field F_q with q = <5001 digits>^20: f = 20 is not 1 or 2"),
        ((3, HUGE), "no field F_q with q = 3^<5001 digits>: f = <5001 digits> is not 1 or 2"),
        ((-HUGE - 1,), "no field F_q with q = -<5001 digits>: p = -<5001 digits> is not prime"),
    ],
    ids=["field-p-with-f-past-max", "field-f", "field-negative-p"],
)
def test_a_huge_field_input_is_refused_with_its_digit_count(args, text):
    """The field's refusals that are not its budget's write p, f and q as
    the writer does, by `int_text`."""
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        FiniteField(*args)
    assert time.perf_counter() - start < 1
    assert str(info.value) == text


def test_int_text_writes_a_value_past_10_to_the_64_by_its_digit_count():
    below = 10**64 - 1
    assert (int_text(below), int_text(-below)) == (str(below), str(-below))
    assert (int_text(10**64), int_text(-(10**64))) == ("<65 digits>", "-<65 digits>")
    assert (int_text(HUGE - 1), int_text(-HUGE)) == ("<5000 digits>", "-<5001 digits>")


def test_over_budget_writes_the_one_wording():
    assert str(over_budget("rank", "rank", 9, "RANK_BUDGET", 8)) == "rank 9 exceeds the budget RANK_BUDGET = 8"
    assert str(over_budget(None, "order", None, "B", 3)) == "order exceeds the budget B = 3"
    big = over_budget("k", "k =", 10**64, "B", 3)
    assert (big.subject, str(big)) == ("k", "k = <65 digits> exceeds the budget B = 3")
    kept = over_budget(None, "{value} is past {budget} ({limit})", 10**64 - 1, "B", 3)
    assert str(kept) == f"{10**64 - 1} is past B = 3 (3)"


# ---------------------------------------------------------------------------
# the source guard


def _trees():
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(LIBRARY.rglob("*.py"))
    ]


def _called(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _subject_literals(tree):
    """The string subjects of every `Refusal(...)` and `over_budget(...)`
    call in tree. A subject that is a loop variable, as in `for group,
    coords in (("h1", inv), ("pi0", kappa))`, counts with each string it
    takes."""
    loops = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple) and isinstance(node.iter, ast.Tuple):
            first = node.target.elts[0]
            if isinstance(first, ast.Name):
                loops.setdefault(first.id, set()).update(
                    item.elts[0].value
                    for item in node.iter.elts
                    if isinstance(item, ast.Tuple) and isinstance(item.elts[0], ast.Constant)
                )
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) in ("Refusal", "over_budget") and node.args:
            subject = node.args[0]
            if isinstance(subject, ast.Constant) and isinstance(subject.value, str):
                out.add(subject.value)
            elif isinstance(subject, ast.Name):
                out |= loops.get(subject.id, set())
    return out


def test_every_flag_key_is_the_subject_of_a_library_refusal():
    keys = {key for flags in cli._FLAGS.values() for key in flags if key is not None}
    subjects = set().union(*(_subject_literals(tree) for _, tree in _trees()))
    assert keys - subjects == set(), "keys of cli._FLAGS that no refusal carries"
    assert subjects - keys == set(), "refusal subjects that cli._FLAGS does not list"


def _writes_a_budget(node):
    """Whether an argument formats a budget's or a bound's name, or spells
    one out in its text."""
    for part in ast.walk(node):
        if isinstance(part, ast.FormattedValue):
            names = [
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(part.value)
                if isinstance(n, (ast.Name, ast.Attribute))
            ]
            if any(BUDGET_NAME.fullmatch(name) for name in names):
                return True
        elif isinstance(part, ast.Constant) and isinstance(part.value, str) and BUDGET_NAME.search(part.value):
            return True
    return False


def test_no_refusal_writes_a_budget_by_hand():
    """A ValueError or Refusal that names a budget in its own text, or
    formats the budget's constant, bypasses `over_budget`: its value is
    written by hand, and past 4300 digits the refusal dies in str()."""
    found = [
        f"{path.relative_to(LIBRARY)}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called(node) in ("ValueError", "Refusal")
        and any(_writes_a_budget(arg) for arg in node.args)
    ]
    assert found == [], "budget refusals written by hand"
