"""The example scripts run with their default arguments, exit 0 and print
the same bytes: sha256 of stdout recorded at commit 5d00f35. The README's
library quick start runs and prints what its comments say."""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, digest",
    [
        ("acyclic_pages.py", "1bcdc909dbbd1dca122525bcb9d24c633ff2f47b5f0cff900dd7d79a0c8db6c8"),
        ("torus_certificates.py", "949f5b9b68245152db285d3e017a21db3d673d43abe6e9e90592b7ee5a693072"),
    ],
)
def test_script_stdout(script, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == digest


def test_readme_quick_start_prints_what_it_documents():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == [
        "failed(primitive-component-only)",
        "{'alpha': {'xi1xi2': '1'}, 'd_prime': {'eta1': '-1'}}",
    ]
    # each print line's comment is the line it prints
    documented = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert documented == printed
