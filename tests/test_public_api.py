"""The public surface: every name that specseq exports exists."""

import specseq


def test_every_exported_name_resolves():
    assert [name for name in specseq.__all__ if not hasattr(specseq, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from specseq import *", namespace)
    assert set(specseq.__all__) <= namespace.keys()
