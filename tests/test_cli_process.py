"""The CLI as a user runs it: ``python -m crossnum.cli`` in a fresh process.

In-process tests share one interpreter that has imported every layer, so
an import missing from a command would pass them.  Each command here
runs in its own interpreter and must print what ``main`` prints in
process, with the same exit code.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossnum
from crossnum.cli import EXIT_ARGS, EXIT_OK, EXIT_RESOURCE, main

SRC = str(Path(crossnum.__file__).resolve().parents[1])

COMMANDS = {
    "count": (["count", "--r", "6", "--d", "3", "--brute"], EXIT_OK),
    "spectrum": (["spectrum", "--kind", "plus", "--d", "2", "--s", "1",
                  "--nmax", "6", "--format", "csv"], EXIT_OK),
    "verify": (["verify", "--formula", "plus-upper-49", "--d", "2", "--s", "1",
                "--nmax", "800"], EXIT_OK),
    "tract": (["tract", "--kind", "star", "--d", "2", "--s", "1",
               "--eps", "0.1", "--exact"], EXIT_OK),
    "cross": (["cross", "--r", "4", "--d", "2"], EXIT_OK),
    "trace": (["trace", "--d", "3", "--s", "1", "--rs", "10,100"], EXIT_OK),
    "trace-past-double-range": (["trace", "--d", "2", "--s", "1e300", "--rs", "100"],
                                EXIT_OK),
    "argument-refusal": (["tract", "--kind", "intm", "--d", "2", "--s", "1",
                          "--eps", "0.1"], EXIT_ARGS),
    "resource-refusal": (["spectrum", "--kind", "sharp", "--d", "3", "--s", "1",
                          "--nmax", "50", "--max-enum", "10"], EXIT_RESOURCE),
    # an integer-m order past double range, refused by each command that takes one
    "intm-order-refusal-spectrum": (["spectrum", "--kind", "intm", "--d", "2",
                                     "--m", "1" + "0" * 400, "--n", "5"], EXIT_ARGS),
    "intm-order-refusal-tract": (["tract", "--kind", "intm", "--d", "2",
                                  "--m", "1" + "0" * 400, "--eps", "0.5"], EXIT_ARGS),
    "intm-order-refusal-verify": (["verify", "--formula", "intm-upper-413", "--d", "2",
                                   "--m", "1" + "0" * 400], EXIT_ARGS),
    # an order that a double would round, 2**53 + 1
    "intm-order-refusal-rounded": (["tract", "--kind", "intm", "--d", "2",
                                    "--m", "9007199254740993", "--eps", "0.5"], EXIT_ARGS),
}

# what a count or a cross export must not load
HEAVY = ("dataclasses", "inspect", "crossnum.spectra", "crossnum.tractability",
         "crossnum.fourier")


# runs the CLI module as -m does, then lists on stderr every module loaded
LISTING = ("import atexit, runpy, sys; "
           "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr)); "
           "runpy.run_module('crossnum.cli', run_name='__main__', alter_sys=True)")


def fresh(argv, *, listing=False):
    """Run the CLI in a new interpreter: the exit code, stdout and, with
    ``listing``, the set of modules the process loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    head = ["-c", LISTING] if listing else ["-m", "crossnum.cli"]
    done = subprocess.run([sys.executable, *head, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    loaded = set(done.stderr.split()) if listing else None
    return done.returncode, done.stdout, loaded


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fresh_process_matches_main(name, capsys):
    argv, expected = COMMANDS[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected
    fresh_code, fresh_out, _ = fresh(argv)
    assert (fresh_code, fresh_out) == (code, out)


@pytest.mark.parametrize("name", ["count", "cross"])
def test_count_and_cross_load_no_spectra(name):
    code, out, loaded = fresh(COMMANDS[name][0], listing=True)
    assert (code, out) == fresh(COMMANDS[name][0])[:2]
    assert {"crossnum.bounds", "crossnum.combinatorics"} <= loaded  # the listing is whole
    assert not loaded & set(HEAVY)
