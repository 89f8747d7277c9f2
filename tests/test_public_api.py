"""The public surface: every name that specseq exports exists, and is loaded on first use."""

import os
import subprocess
import sys
from pathlib import Path

import specseq


def test_every_exported_name_resolves():
    assert [name for name in specseq.__all__ if not hasattr(specseq, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from specseq import *", namespace)
    assert set(specseq.__all__) <= namespace.keys()


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, specseq; print(*sorted(m for m in sys.modules if m.startswith('specseq')))"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=60, check=True
    )
    assert run.stdout.decode().split() == ["specseq"]


def test_dir_lists_every_exported_name():
    assert set(specseq.__all__) <= set(dir(specseq))
