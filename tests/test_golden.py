"""CLI stdout and certificate JSON are byte-identical to recorded digests.

The compute and fuzz digests were recorded at commit 00a016d, the certificate
and d2 digests at commit 01b8d75, the page-route digests of the seeded
random complex at commit 64fa149, the eight-page digests at commit
3674f0b, the model and ext-dims digests at commit 8fda67e, the
dims-only compute digests at commit bc5f6c4, the scaled-63 page-route
digests at commit 67135fa, the wide-filtration page-route digests at
commit eaf6292, and the error-object digests at commit cfdb87b, while
stdout was still written by json.dumps.
"""

import hashlib
import json
import random

import pytest

from specseq import (
    Derivation,
    ObstructionDatum,
    build_model,
    d2_from_alpha,
    degeneration_certify,
    tensor_model,
)
from specseq.cli import main
from specseq.fuzz import random_filtered_complex

from conftest import acyclic_two_term, scaled_complex

GOLDEN = {
    "compute-with-maps-acyclic": "2da02396eda004c9c80a3e9176dc98fef82b11f74c5bda635ce1ba3ee8edcd4f",
    "fuzz-20-seed-0": "1baf095a06887c61e0b638e5d9b0ee8db134b7bdcd6b91828392b86254db9ae3",
    "certify-zero-torus2": "fc55d8c145f1d57b3fd78dcd01ce3c911aedf10f8275fcc5332dea2703750d07",
    "certify-xi1-torus2": "19198d287cb75b20e2317348f62fee5402054bee39c65f34ba5c81c0d11824c9",
    "certify-xi1-torus2-square-zero": "e060a3f88e749a816fecb197543fcfdbf045fbe8760744577da8e2ac77326c39",
    "certify-xi1-torus3": "64c4a742476f7e9325d6255806a4bc4ad8618f1e58edc8ec3bbb4425a98eda10",
    "d2-xi1-torus2": "4cb1d7f9c65d903661b5780582bf21ef2092dc8d204546b7e5325189109796c5",
    "certificate-twisted-pairing-torus2": "1bfde01879e527d1f4399d8aa40443f70ab3c0c18fc50bdf133dd8e18a72a72c",
    "oracle-random-0": "8f23b987ec1eae756ffe6b233e7f11672be8d1f994573e211e6a0a53fb5d7b16",
    "decalage-random-0": "cfced08e111f1f1e13210dad1d21cca6c8bc62f047fa2a0e731b66bc4cbaf841",
    "compute-with-maps-random-0": "eeb453e4ff264f48c4ccd8606047e46d221dbd39f79a44afed3461d60a4cf93f",
    "oracle-pages-8-random-33": "4c10caa0341d4bf5781932671a37e7d67cde444b4426c6a2a1db27449df657c1",
    "compute-with-maps-pages-8-random-33": "213d308d10065a23f0d8cba381f22789cacd5db8fbd2a88dc778335942d84fa0",
    "model-torus-3": "5276044996186cebf1bc50355371077a18588b0b213def36f158a26438c91b15",
    "model-product-torus1-pn4": "a58d13182513d958b1b946a2a4fbbff346d5b8a64412ef77fa8aab0cd9ecf597",
    "ext-dims-torus1xpn2": "03287041266ed2cfd9871f2378c89d9f2735cf6b4ca4ffa7fcb526bc29f00172",
    "compute-acyclic": "6f7d40244fc74e216b59fd46b87d5c452d8d7fe7a80e91fd0175c7a538f1a673",
    "compute-random-0": "e3f1e4f742918e058bc809eaaac58bae3a2d1e35ba596489a4f23070f92b780a",
    "compute-pages-8-random-33": "cd2cf29b8c5aa347ad3bcb3065b1cb90e2fbf5af8a0d768741fc5d797bb45f3a",
    "compute-scaled-63": "87805446d3de07c14aadc96256bb3c288c1d840a9a0ccd9cdd9bd42e981cf365",
    "decalage-scaled-63": "031380086f19458becb574fb63f46c6a2200fcf778b56beb7c0c6b3e807aae20",
    "compute-with-maps-scaled-63": "8983e429e37b67d7f7720a168497f2408abcfbed0afbf35ac8e90fd764dc4eea",
    "oracle-wide-39": "8f23b987ec1eae756ffe6b233e7f11672be8d1f994573e211e6a0a53fb5d7b16",
    "decalage-wide-39": "518dafe854140e02bb2b37073116def739b4b9a54faa939de181febb29acf520",
    "compute-with-maps-wide-39": "0c1e9bf245e2f8c205c2b00adc12e6b53a379ef78c785a2bbf07cc34aaed5fd5",
    "error-parse-non-ascii-key": "7bf9a3c5bb196039c981d03fda592a56bf382e9c9183355867e36d18a7f9967a",
    "error-invariant-dict-witness": "27a90cb0d06452058e7ffc81b9b1e4c32396440ff7f751dc42be4215ad862e0a",
}

def stdout_digest(capsys, argv, code=0) -> str:
    assert main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def write_json(path, blob) -> str:
    path.write_text(json.dumps(blob))
    return str(path)


def test_compute_with_maps_on_the_acyclic_fixture(capsys, tmp_path):
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps(acyclic_two_term().to_json()))
    argv = ["compute", "--input", str(path), "--with-maps"]
    assert stdout_digest(capsys, argv) == GOLDEN["compute-with-maps-acyclic"]


@pytest.mark.parametrize(
    "key, blob, flags",
    [
        ("compute-acyclic", lambda: acyclic_two_term().to_json(), []),
        ("compute-random-0", lambda: random_filtered_complex(random.Random(0)).to_json(), []),
        (
            "compute-pages-8-random-33",
            lambda: random_filtered_complex(random.Random(33)).to_json(),
            ["--pages", "8"],
        ),
        # total dim 63 over 6 degrees and 5 levels
        ("compute-scaled-63", lambda: scaled_complex(random.Random(0), 64, 6, 5), []),
    ],
    ids=["acyclic", "random-0", "pages-8-random-33", "scaled-63"],
)
def test_compute_dims_only(capsys, tmp_path, key, blob, flags):
    path = write_json(tmp_path / "fk.json", blob())
    assert stdout_digest(capsys, ["compute", "--input", path] + flags) == GOLDEN[key]


def test_fuzz_20_cases_seed_0(capsys):
    argv = ["fuzz", "--cases", "20", "--seed", "0"]
    assert stdout_digest(capsys, argv) == GOLDEN["fuzz-20-seed-0"]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("oracle-random-0", ["oracle"]),
        ("decalage-random-0", ["decalage"]),
        ("compute-with-maps-random-0", ["compute", "--with-maps"]),
    ],
)
def test_page_routes_on_a_random_complex(capsys, tmp_path, key, argv):
    # total dim 15 over degrees 2..4, with a nonzero d_2
    fk = random_filtered_complex(random.Random(0))
    path = write_json(tmp_path / "fk.json", fk.to_json())
    assert stdout_digest(capsys, argv + ["--input", path]) == GOLDEN[key]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("decalage-scaled-63", ["decalage"]),
        ("compute-with-maps-scaled-63", ["compute", "--with-maps"]),
    ],
)
def test_page_routes_on_a_scaled_complex(capsys, tmp_path, key, argv):
    # total dim 63 over 6 degrees and 5 levels, behind a rational change of
    # basis: the maps and decalage pages print rationals past the pivots
    path = write_json(tmp_path / "fk.json", scaled_complex(random.Random(0), 64, 6, 5))
    assert stdout_digest(capsys, argv + ["--input", path]) == GOLDEN[key]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("oracle-wide-39", ["oracle"]),
        ("decalage-wide-39", ["decalage"]),
        ("compute-with-maps-wide-39", ["compute", "--with-maps"]),
    ],
)
def test_page_routes_on_a_wide_filtration(capsys, tmp_path, key, argv):
    # total dim 39 over 5 degrees and 8 levels: 19 of the 40 cells sit where
    # F^p = F^{p+1}, and 19 of the 45 filtration bases repeat a basis given
    # at another level of the same degree
    path = write_json(tmp_path / "fk.json", scaled_complex(random.Random(0), 48, 5, 8))
    assert stdout_digest(capsys, argv + ["--input", path]) == GOLDEN[key]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("oracle-pages-8-random-33", ["oracle"]),
        ("compute-with-maps-pages-8-random-33", ["compute", "--with-maps"]),
    ],
)
def test_pages_past_stabilization(capsys, tmp_path, key, argv):
    # total dim 16 over degrees -2..1, levels -1..3 and a nonzero d_3; r* = 4,
    # so pages 5-8 read F past both ends of the filtration
    fk = random_filtered_complex(random.Random(33))
    assert (fk.p_lo, fk.p_top) == (-1, 3)
    path = write_json(tmp_path / "fk.json", fk.to_json())
    argv = argv + ["--pages", "8", "--input", path]
    assert stdout_digest(capsys, argv) == GOLDEN[key]


def test_model_torus_3(capsys):
    assert stdout_digest(capsys, ["model", "torus", "--n", "3"]) == GOLDEN["model-torus-3"]


def test_model_product_of_files(capsys, tmp_path):
    argv = [
        "model", "product",
        "--a", write_json(tmp_path / "a.json", build_model("torus", 1).to_json()),
        "--b", write_json(tmp_path / "b.json", build_model("pn", 4).to_json()),
    ]
    assert stdout_digest(capsys, argv) == GOLDEN["model-product-torus1-pn4"]


def test_ext_dims_of_a_product(capsys, tmp_path):
    model = tensor_model(build_model("torus", 1), build_model("pn", 2))
    argv = ["ext-dims", "--model", write_json(tmp_path / "m.json", model.to_json())]
    assert stdout_digest(capsys, argv) == GOLDEN["ext-dims-torus1xpn2"]


def test_parse_error_object_with_a_non_ascii_key(capsys, tmp_path):
    # the key holds a quote, a backslash, a tab and two non-ASCII letters,
    # all escaped in the message
    blob = build_model("torus", 2).to_json()
    blob["derivation"] = {"bidegree": [2, -1], "values": {}}
    blob["products"]['\u03be"\\\t\u00e9,2'] = blob["products"].pop("1,2")
    argv = ["certify", "--algebra", write_json(tmp_path / "m.json", blob)]
    assert stdout_digest(capsys, argv, code=3) == GOLDEN["error-parse-non-ascii-key"]


def test_invariant_error_object_with_a_dict_witness(capsys):
    argv = ["model", "torus", "--n", "7"]
    assert stdout_digest(capsys, argv, code=4) == GOLDEN["error-invariant-dict-witness"]


XI1_TORUS2 = {"images": {"xi1": {"eta1eta2": "1"}}}
XI1_TORUS3 = {"images": {"xi1": {"eta2eta3": "1"}}}


@pytest.mark.parametrize(
    "key, model, datum, flags, code",
    [
        # every step passes
        ("certify-zero-torus2", "torus2", {"images": {}}, [], 0),
        ("certify-xi1-torus2", "torus2", XI1_TORUS2, [], 2),
        ("certify-xi1-torus2-square-zero", "torus2", XI1_TORUS2, ["--require-square-zero"], 2),
        # fails at omega-killed
        ("certify-xi1-torus3", "torus3", XI1_TORUS3, [], 2),
    ],
)
def test_certify_stdout(request, capsys, tmp_path, key, model, datum, flags, code):
    model = request.getfixturevalue(model)
    d = d2_from_alpha(ObstructionDatum.from_json(model, datum))
    argv = [
        "certify",
        "--algebra", write_json(tmp_path / "model.json", model.to_json()),
        "--derivation", write_json(tmp_path / "d.json", d.to_json()),
    ] + flags
    assert stdout_digest(capsys, argv, code) == GOLDEN[key]


def test_d2_stdout(capsys, tmp_path, torus2):
    argv = [
        "d2",
        "--model", write_json(tmp_path / "model.json", torus2.to_json()),
        "--alpha", write_json(tmp_path / "alpha.json", XI1_TORUS2),
        "--scale", "2/3",
    ]
    assert stdout_digest(capsys, argv) == GOLDEN["d2-xi1-torus2"]


def test_twisted_pairing_failure_certificate(torus2):
    # xi1 -> eta1eta2 and zero elsewhere is not Leibniz; marking it checked
    # lets every step before twisted-pairing-induction pass
    alg = torus2.pa.A
    values = [alg.zero() for _ in range(alg.dim())]
    values[alg.index("xi1")] = alg.el("eta1") * alg.el("eta2")
    d = Derivation(alg, (2, -1), values, check=False)
    d.leibniz_checked = True
    cert = degeneration_certify(torus2.pa, d)
    assert cert.failed_step == "twisted-pairing-induction"
    blob = json.dumps(cert.to_json(), sort_keys=True, indent=2)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == GOLDEN["certificate-twisted-pairing-torus2"]
