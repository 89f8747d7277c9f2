"""Every entry point that bench/tracer.py wraps still exists.

A renamed or deleted entry point would otherwise only show up when a traced
benchmark run fails to install its wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("layer, modname, path", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(layer, modname, path):
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_certificate_keeps_its_steps():
    # the tracer's lefschetz.cert_steps counter reads len(result.steps)
    from specseq.lefschetz import Certificate

    assert Certificate().steps == []
