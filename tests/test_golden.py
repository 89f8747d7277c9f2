"""CLI stdout is byte-identical to digests recorded at commit 00a016d."""

import hashlib
import json

from specseq.cli import main

from conftest import acyclic_two_term

GOLDEN = {
    "compute-with-maps-acyclic": "2da02396eda004c9c80a3e9176dc98fef82b11f74c5bda635ce1ba3ee8edcd4f",
    "fuzz-20-seed-0": "1baf095a06887c61e0b638e5d9b0ee8db134b7bdcd6b91828392b86254db9ae3",
}


def stdout_digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_compute_with_maps_on_the_acyclic_fixture(capsys, tmp_path):
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps(acyclic_two_term().to_json()))
    argv = ["compute", "--input", str(path), "--with-maps"]
    assert stdout_digest(capsys, argv) == GOLDEN["compute-with-maps-acyclic"]


def test_fuzz_20_cases_seed_0(capsys):
    argv = ["fuzz", "--cases", "20", "--seed", "0"]
    assert stdout_digest(capsys, argv) == GOLDEN["fuzz-20-seed-0"]
