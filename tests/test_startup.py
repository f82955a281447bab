"""What a CLI call imports: only what the call runs.

The verify suite, json and csv load in the code that uses them, and no
module of the package imports dataclasses.  Each check runs in a fresh
interpreter and compares its modules against a snapshot taken before the
import, so modules that site already loads do not count.
"""
from __future__ import annotations

import subprocess
import sys

import pytest

from gonalslope import cli

_NEWLY_LOADED = """
import sys
before = set(sys.modules)
import gonalslope.cli as cli
cli.build_parser()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_leaves_verify_json_csv_and_dataclasses_unloaded(child_env):
    proc = subprocess.run([sys.executable, "-c", _NEWLY_LOADED], env=child_env,
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert {"gonalslope.cli", "gonalslope.bounds"} <= loaded
    assert not loaded & {"gonalslope.verify", "json", "csv", "dataclasses"}


def test_unknown_cli_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cli.no_such_name


def test_verify_subcommand_still_runs_every_check(child_env):
    proc = subprocess.run([sys.executable, "-m", "gonalslope", "verify"], env=child_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all 25 checks passed"
