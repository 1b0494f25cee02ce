"""Calls of `liechar.cli.main` in one interpreter, compared with fresh
processes.

`main` reuses one parser for every call in a process. The sequence below
puts calls next to each other that would differ if any state carried over
from one call to the next: a `--format` default after an explicit value,
one endoscopy subcommand after another, and a valid call after a usage
error (exit 2: a missing flag, or `--format` on a subcommand without it)
and after a rejected input (exit 1). Then comes a table
over F_9, whose field is not prime. It ends with a chain of calls on E6,
whose root datum is one object per process (`build_root_datum` is a
registry): enumerate, estimate, a rejected and an elliptic from-kappa, the
adjoint form, and enumerate again, so that no call may leave the shared
datum, or what is derived from it, changed for the next. Each in-process
call must print the same stdout and return the same exit code as the same
arguments in a fresh `python -m liechar.cli` process, and its subcommand
must see the namespace that a freshly built parser gives, with no flag left
over from an earlier call. `tests/test_no_dead_code.py` traces the
in-process calls.

Runs without pytest (`tests/test_cli.py` runs it too):

    PYTHONPATH=src python tests/cli_sequence.py
"""

import contextlib
import io
import subprocess
import sys

import liechar.cli as cli

SEQUENCE = [
    ["chartable", "--group", "SL2", "--q", "3", "--format", "json"],
    ["chartable", "--group", "SL2", "--q", "3"],
    ["endoscopy", "from-kappa", "--type", "C2", "--kappa", '["1/2", "1/2"]'],
    ["endoscopy", "enumerate", "--type", "C2"],
    ["springer", "verify", "--group", "SL2"],
    ["hilbert", "--a", "-1", "--b", "-1", "--place", "2"],
    ["hilbert", "--a", "0", "--b", "3", "--place", "5"],
    ["tori", "h1", "--frobenius", "[[-1]]", "--format", "json"],
    ["tori", "h1", "--frobenius", "[[-1]]"],
    ["chartable", "--group", "SL2", "--q", "9", "--method", "classical"],
    ["endoscopy", "enumerate", "--type", "E6"],
    ["endoscopy", "estimate", "--type", "E6"],
    ["endoscopy", "from-kappa", "--type", "E6", "--kappa", '["1/2", "0"]'],
    ["endoscopy", "from-kappa", "--type", "E6", "--kappa", '["0", "0", "0", "1/3", "0", "0"]'],
    ["endoscopy", "enumerate", "--type", "E6", "--isogeny", "ad"],
    ["endoscopy", "enumerate", "--type", "E6"],
]
# the usage error and the rejected inputs are what the calls after them test
EXIT_CODES = [0, 0, 0, 0, 2, 0, 1, 2, 0, 0, 0, 0, 1, 0, 0, 0]


def in_process(argv):
    """(exit code, stdout, namespace) of one `main` call in this interpreter.
    The namespace is a copy of the flags the subcommand emitted its document
    with, or None when it emitted none."""
    out, seen, emit = io.StringIO(), [], cli._emit

    def recording(doc, args, **kw):
        seen.append(dict(vars(args)))
        return emit(doc, args, **kw)

    cli._emit = recording
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        cli._emit = emit
    return code, out.getvalue(), seen[0] if seen else None


def fresh(argv):
    """(exit code, stdout) of the same call in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "liechar.cli", *argv], capture_output=True, text=True, timeout=600
    )
    return proc.returncode, proc.stdout


def mismatches():
    """(results, faults): the in-process results, which run first, back to
    back, in sequence order; then one line for each call whose stdout or
    exit code differs from a fresh process, or whose namespace differs from
    a freshly built parser's."""
    got = [in_process(argv) for argv in SEQUENCE]
    faults = []
    for argv, (code, out, namespace) in zip(SEQUENCE, got):
        theirs = fresh(argv)
        if (code, out) != theirs:
            faults.append(f"liechar {' '.join(argv)}: in process {(code, out)!r}, fresh process {theirs!r}")
        if namespace is not None and namespace != vars(cli.build_parser().parse_args(argv)):
            faults.append(f"liechar {' '.join(argv)}: namespace {namespace!r} differs from a fresh parser's")
    return got, faults


if __name__ == "__main__":
    got, faults = mismatches()
    codes = [code for code, _, _ in got]
    if codes != EXIT_CODES:
        faults.append(f"exit codes {codes}, expected {EXIT_CODES}")
    print("\n".join(faults) or f"{len(SEQUENCE)} in-process calls match fresh processes")
    sys.exit(1 if faults else 0)
