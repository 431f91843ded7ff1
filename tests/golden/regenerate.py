"""Golden CLI outputs: the cases, how one is run, and their regeneration.

Each case runs ofdmsee.cli.main in process, in an empty working directory,
and its golden file records the argv, the exit code, stdout, stderr and every
file the run wrote there. tests/test_golden.py reruns each case and compares
every byte with its golden file.

Regenerate after a change that moves an output on purpose, and list each
moved line in CHANGES.md with its reason:

    PYTHONPATH=src python tests/golden/regenerate.py

The goldens pin numpy and scipy as installed when they were written (numpy
2.4.6, scipy 1.17.1); a library upgrade that moves a digit is a regeneration
too, never a skip.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (name, argv): every subcommand at its defaults, the link flags that move a
# run into another regime, and two rejected arguments
CASES = (
    ("se-sweep", ["se-sweep"]),
    ("ee-sweep", ["ee-sweep"]),
    ("tradeoff", ["tradeoff"]),
    ("pas-frontier", ["pas-frontier"]),
    ("optimal-xi", ["optimal-xi"]),
    ("datasheet", ["datasheet"]),
    ("tradeoff-d1km", ["tradeoff", "--d-km", "1"]),
    ("optimal-xi-d1km", ["optimal-xi", "--d-km", "1"]),
    ("se-sweep-d5km", ["se-sweep", "--d-km", "5"]),
    ("mc-validate-20k", ["mc-validate", "--samples", "20000"]),
    ("mc-validate-n-sub-100", ["mc-validate", "--n-sub", "100"]),
    ("mc-validate-samples-0", ["mc-validate", "--samples", "0"]),
)


def golden_path(name):
    return HERE / f"{name}.json"


def run_case(argv):
    """The record of one CLI run: argv, exit code, stdout, stderr and files.

    Warnings are reset to the interpreter's default filter, so each run
    reports a warning the way a fresh process would.
    """
    from ofdmsee import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("default")
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        files = {p.name: p.read_text() for p in sorted(Path(work).iterdir())}
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def render(record):
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def main():
    for name, argv in CASES:
        text = render(run_case(argv))
        golden_path(name).write_text(text)
        print(f"wrote {golden_path(name).name} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
