"""End-to-end CLI coverage: shapes, exit codes, determinism."""

import json

import pytest

from specseq import build_model
from specseq.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


@pytest.fixture
def acyclic_path(tmp_path, acyclic_fk):
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps(acyclic_fk.to_json()))
    return str(path)


@pytest.fixture
def torus2_path(tmp_path, torus2):
    path = tmp_path / "torus2.json"
    path.write_text(json.dumps(torus2.to_json()))
    return str(path)


def alpha_blob():
    return {"scale": "1", "images": {"xi1": {"eta1eta2": "1"}}}


class TestCompute:
    def test_frozen_pages_and_abutment(self, capsys, acyclic_path):
        code, out = run_json(
            capsys, ["compute", "--input", acyclic_path, "--pages", "4"]
        )
        assert code == 0
        assert out["pages"] == {
            "1": {"0,0": 1, "2,-1": 1},
            "2": {"0,0": 1, "2,-1": 1},
            "3": {},
            "4": {},
        }
        assert out["abutment"]["ok"] is True
        assert out["abutment"]["r_star"] == 3

    def test_with_maps_reports_the_nonzero_differential(self, capsys, acyclic_path):
        code, out = run_json(
            capsys,
            ["compute", "--input", acyclic_path, "--pages", "3", "--with-maps"],
        )
        assert code == 0
        assert list(out["maps"]["2"]) == ["0,0"]
        assert out["maps"]["1"] == {} and out["maps"]["3"] == {}

    def test_out_file_matches_stdout(self, capsys, tmp_path, acyclic_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys, ["compute", "--input", acyclic_path, "--out", str(target)]
        )
        assert code == 0
        assert target.read_text() == out


class TestOracleAndDecalage:
    def test_oracle_agrees_on_the_micro_example(self, capsys, acyclic_path):
        code, out = run_json(capsys, ["oracle", "--input", acyclic_path])
        assert code == 0
        assert out["ok"] is True
        assert out["mismatches"] == []

    def test_decalage_renumbering_holds(self, capsys, acyclic_path):
        code, out = run_json(capsys, ["decalage", "--input", acyclic_path])
        assert code == 0
        assert out["ok"] is True


class TestModel:
    def test_torus2_table(self, capsys):
        code, out = run_json(capsys, ["model", "torus", "--n", "2"])
        assert code == 0
        assert out["name"] == "torus2"
        assert out["e2_table"] == {
            "0,0": 1, "0,1": 2, "0,2": 1, "1,0": 2, "1,1": 4,
            "1,2": 2, "2,0": 1, "2,1": 2, "2,2": 1,
        }

    def test_product_of_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(build_model("torus", 1).to_json()))
        b.write_text(json.dumps(build_model("pn", 1).to_json()))
        code, out = run_json(
            capsys, ["model", "product", "--a", str(a), "--b", str(b)]
        )
        assert code == 0
        assert out["name"] == "torus1xpn1"
        degrees = [0] * 5
        for key, v in out["e2_table"].items():
            p, q = map(int, key.split(","))
            degrees[p + q] += v
        assert degrees == [1, 2, 2, 2, 1]

    def test_product_needs_both_factors(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(build_model("torus", 1).to_json()))
        code, out = run_json(capsys, ["model", "product", "--a", str(a)])
        assert code == 3
        assert out["error"] == "parse"

    def test_missing_n_is_a_parse_error(self, capsys):
        code, out = run_json(capsys, ["model", "torus"])
        assert code == 3

    @pytest.mark.parametrize("kind", ["torus", "pn"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_exits_4_with_its_value(self, capsys, kind, n):
        code, out = run_json(capsys, ["model", kind, "--n", str(n)])
        assert code == 4
        assert out["error"] == "invariant"
        assert out["message"].endswith("needs n >= 1")
        assert out["witness"] == {"n": n}


class TestExtDims:
    def test_torus2(self, capsys, torus2_path):
        code, out = run_json(capsys, ["ext-dims", "--model", torus2_path])
        assert code == 0
        assert out == {"model": "torus2", "ext_dimensions": [1, 4, 6, 4, 1]}


class TestD2:
    def test_alpha_derivation_report(self, capsys, tmp_path, torus2_path):
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps(alpha_blob()))
        code, out = run_json(
            capsys, ["d2", "--model", torus2_path, "--alpha", str(alpha)]
        )
        assert code == 0
        assert out["serre_sign"] == {"ok": True, "witness": None}
        assert out["is_zero"] is False
        assert out["datum"]["images"] == {"xi1": {"eta1eta2": "1"}}

    def test_scale_zero_kills_the_derivation(self, capsys, tmp_path, torus2_path):
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps(alpha_blob()))
        code, out = run_json(
            capsys,
            ["d2", "--model", torus2_path, "--alpha", str(alpha), "--scale", "0"],
        )
        assert code == 0
        assert out["is_zero"] is True

    @pytest.mark.parametrize("scale", ["abc", "1/0"])
    def test_bad_scale_exits_3_at_scale(self, capsys, torus2_path, scale):
        code, out = run_json(capsys, ["d2", "--model", torus2_path, "--scale", scale])
        assert code == 3
        assert out["error"] == "parse"
        assert out["location"] == "scale"

    def test_default_datum_is_zero(self, capsys, torus2_path):
        code, out = run_json(capsys, ["d2", "--model", torus2_path])
        assert code == 0
        assert out["is_zero"] is True

    @pytest.mark.parametrize(
        "images, location",
        [
            ({"nope": {"eta1eta2": "1"}}, "images.nope"),
            ({"xi1": {"nope": "1"}}, "images.xi1.nope"),
        ],
        ids=["generator", "coefficient"],
    )
    def test_unknown_basis_name_exits_3_at_its_key(
        self, capsys, tmp_path, torus2_path, images, location
    ):
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps({"scale": "1", "images": images}))
        code, out = run_json(capsys, ["d2", "--model", torus2_path, "--alpha", str(alpha)])
        assert code == 3
        assert out["error"] == "parse"
        assert out["location"] == location
        assert "nope" in out["message"]


class TestCertify:
    def test_zero_derivation_certifies(self, capsys, tmp_path, torus2, torus2_path):
        alg = torus2.pa.A
        from specseq import Derivation

        zero = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
        dpath = tmp_path / "zero.json"
        dpath.write_text(json.dumps(zero.to_json()))
        code, out = run_json(
            capsys,
            ["certify", "--algebra", torus2_path, "--derivation", str(dpath)],
        )
        assert code == 0
        assert out["verdict"] == "certified"

    def test_embedded_derivation_key(self, capsys, tmp_path, torus2):
        from specseq import Derivation

        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
        blob = torus2.to_json()
        blob["derivation"] = zero.to_json()
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(blob))
        code, out = run_json(capsys, ["certify", "--algebra", str(path)])
        assert code == 0
        assert out["verdict"] == "certified"

    def test_obstructed_instance_exits_2(self, capsys, tmp_path, torus2, torus2_path):
        from specseq import ObstructionDatum, d2_from_alpha

        d = d2_from_alpha(ObstructionDatum.from_json(torus2, alpha_blob()))
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(d.to_json()))
        code, out = run_json(
            capsys,
            ["certify", "--algebra", torus2_path, "--derivation", str(dpath)],
        )
        assert code == 2
        assert out["verdict"] == "failed(primitive-component-only)"
        assert out["failed_step"] == "primitive-component-only"

    def test_require_square_zero_step(self, capsys, tmp_path, torus2, torus2_path):
        from specseq import Derivation

        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
        dpath = tmp_path / "zero.json"
        dpath.write_text(json.dumps(zero.to_json()))
        code, out = run_json(
            capsys,
            [
                "certify", "--algebra", torus2_path,
                "--derivation", str(dpath), "--require-square-zero",
            ],
        )
        assert code == 0
        assert out["steps"][0]["id"] == "square-zero"

    def test_wrong_bidegree_exits_4(self, capsys, tmp_path, torus2, torus2_path):
        from specseq import Derivation

        alg = torus2.pa.A
        bad = Derivation(alg, (1, 0), [alg.zero()] * alg.dim(), check=False)
        dpath = tmp_path / "bad.json"
        dpath.write_text(json.dumps(bad.to_json()))
        code, out = run_json(
            capsys,
            ["certify", "--algebra", torus2_path, "--derivation", str(dpath)],
        )
        assert code == 4
        assert out["error"] == "invariant"

    def test_missing_derivation_exits_3(self, capsys, torus2_path):
        code, out = run_json(capsys, ["certify", "--algebra", torus2_path])
        assert code == 3
        assert out["location"] == "derivation"


class TestErrors:
    def test_missing_file_exits_3_with_location(self, capsys):
        code, out = run_json(capsys, ["compute", "--input", "/no/such/file.json"])
        assert code == 3
        assert out["error"] == "parse"
        assert out["location"] == "/no/such/file.json"

    def test_invalid_json_exits_3(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, out = run_json(capsys, ["compute", "--input", str(path)])
        assert code == 3
        assert "invalid JSON" in out["message"]

    def test_zero_threads_is_rejected_by_compute(self, capsys, monkeypatch):
        monkeypatch.setenv("SS_THREADS", "0")
        code, out = run_json(capsys, ["compute", "--input", "x"])
        assert code == 4
        assert out["message"] == "SS_THREADS must be positive"
        assert out["witness"] == {"SS_THREADS": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--input", "x", "--pages", "0"],
            ["fuzz", "--cases", "0"],
            ["oracle", "--input", "x", "--pages", "-2"],
        ],
    )
    def test_bad_count_exits_4(self, capsys, argv):
        code, out = run_json(capsys, argv)
        assert code == 4
        assert out["error"] == "invariant"
        assert out["message"].endswith("must be positive")
        flag, value = argv[-2:]
        assert out["witness"] == {flag.lstrip("-"): int(value)}

    def test_zero_threads_exits_4_with_its_value(self, capsys, monkeypatch):
        monkeypatch.setenv("SS_THREADS", "0")
        code, out = run_json(capsys, ["fuzz", "--cases", "1"])
        assert code == 4
        assert out["error"] == "invariant"
        assert out["witness"] == {"SS_THREADS": 0}

    def test_non_integer_threads_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SS_THREADS", "x")
        code, out = run_json(capsys, ["fuzz", "--cases", "1"])
        assert code == 3
        assert out["error"] == "parse"
        assert out["location"] == "SS_THREADS"


class TestFuzz:
    def test_small_run_is_clean_and_deterministic(self, capsys):
        argv = ["fuzz", "--cases", "6", "--seed", "3"]
        code1, out1 = run_cli(capsys, argv)
        code2, out2 = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        blob = json.loads(out1)
        assert blob["counterexamples"] == 0
        assert blob["failures"] == []

    def test_threads_do_not_change_the_bytes(self, capsys, monkeypatch):
        argv = ["fuzz", "--cases", "6", "--seed", "11"]
        code1, out1 = run_cli(capsys, argv)
        monkeypatch.setenv("SS_THREADS", "2")
        code2, out2 = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "threads, cases, cpus, workers",
        [(64, 2, 8, 2), (64, 6, 3, 3), (3, 6, 8, 3), (64, 1, 8, None), (4, 6, None, None)],
    )
    def test_pool_never_outgrows_the_cases_or_cpus(
        self, capsys, monkeypatch, threads, cases, cpus, workers
    ):
        import os

        import specseq.cli as cli

        made = []

        class SerialPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        argv = ["fuzz", "--cases", str(cases), "--seed", "2", "--kind", "complexes"]
        code1, out1 = run_cli(capsys, argv)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("SS_THREADS", str(threads))
        code2, out2 = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert made == ([] if workers is None else [workers])

    def test_kind_filters(self, capsys):
        code, out = run_json(
            capsys, ["fuzz", "--cases", "4", "--seed", "5", "--kind", "complexes"]
        )
        assert code == 0
        assert out["verdicts"] == {}
        code, out = run_json(
            capsys, ["fuzz", "--cases", "4", "--seed", "5", "--kind", "derivations"]
        )
        assert code == 0
        assert sum(out["verdicts"].values()) == 4


def square_complex(**patch):
    """Two-term complex Q^2 -> Q^2 with a two-level filtration, keys replaced by patch."""
    blob = {
        "degrees": [0, 1],
        "dims": {"0": 2, "1": 2},
        "d": {"0": [["1", "0"], ["0", "1"]]},
        "filtration": {"0": {"0": [["1", "0"], ["0", "1"]]}, "1": {"0": [], "1": []}},
    }
    blob.update(patch)
    return blob


def square_filtration(basis):
    """A filtration of square_complex whose level 0 in degree 0 has this basis."""
    return {"filtration": {"0": {"0": basis}, "1": {"0": []}}}


# the messages are those the loader gave before filtration bases were read
# straight to integers
@pytest.mark.parametrize(
    "patch, location, message",
    [
        ({"d": {"0": [["1", "0"], ["0"]]}}, "d.0", "expected 2 columns, found 1"),
        ({"d": {"0": [["1", "0", "0"], ["0", "1", "0"]]}}, "d.0", "expected 2 columns, found 3"),
        ({"d": {"0": [["1", "0"]]}}, "d.0", "expected 2 rows, found 1"),
        ({"d": {"0": [["x/0", "0"], ["0", "1"]]}}, "d.0", "bad rational literal 'x/0'"),
        (square_filtration([["1", "0"], ["0"]]), "filtration.0.0", "expected 2 columns, found 1"),
        ({"filtration": {"1": {"0": [["1"]]}, "2": {"0": []}}}, "filtration.1.0",
         "expected 2 rows, found 1"),
        ({"d": {"5": [["1"]]}}, "d.5", "degree outside [0, 1)"),
        ({"d": {"-3": []}}, "d.-3", "degree outside [0, 1)"),
        ({"d": {"1": []}}, "d.1", "degree outside [0, 1)"),
        ({"filtration": {"0": {"4": [["1"]]}, "1": {"0": []}}}, "filtration.0.4",
         "degree outside [0, 1]"),
        ({"filtration": {"0": {"-1": []}, "1": {"0": []}}}, "filtration.0.-1",
         "degree outside [0, 1]"),
        (square_filtration([["x/0", "0"], ["0", "1"]]), "filtration.0.0",
         "bad rational literal 'x/0'"),
        (square_filtration(["1 0", ["0", "1"]]), "filtration.0.0", "matrix must be a list of rows"),
        (square_filtration([[True, "0"], ["0", "1"]]), "filtration.0.0",
         "cannot interpret True as a rational"),
        (square_filtration([["1", 1.5], ["0", "1"]]), "filtration.0.0",
         "cannot interpret 1.5 as a rational"),
    ],
    ids=[
        "ragged", "columns", "rows", "literal", "filtration-ragged", "filtration-rows",
        "d-above", "d-below", "d-top", "filtration-above", "filtration-below",
        "filtration-literal", "filtration-row-string", "filtration-true", "filtration-float",
    ],
)
def test_malformed_matrix_exits_3_at_its_key(capsys, tmp_path, patch, location, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(square_complex(**patch)))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert out["error"] == "parse"
    assert out["location"] == location
    assert out["message"] == f"{location}: {message}"


ONE_BY_ONE = {
    "degrees": [0, 1],
    "dims": {"0": 1, "1": 1},
    "d": {"0": [["1"]]},
    "filtration": {"0": {"0": [["1"]], "1": [["1"]]}, "1": {"0": [], "1": []}},
}


@pytest.mark.parametrize(
    "patch, location, message",
    [
        ({"dims": {"0": 1.9, "1": 1}}, "dims", "dims keys and values must be integers"),
        ({"dims": {"0": True, "1": 1}}, "dims", "dims keys and values must be integers"),
        ({"degrees": [0.7, 1]}, "degrees", "degrees must be a [lo, hi] pair"),
    ],
    ids=["dims-float", "dims-bool", "degrees-float"],
)
def test_non_integer_complex_field_exits_3(capsys, tmp_path, patch, location, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(ONE_BY_ONE))
    assert run_json(capsys, ["compute", "--input", str(path)])[0] == 0
    # int() would read each value as the integer of the valid complex
    path.write_text(json.dumps({**ONE_BY_ONE, **patch}))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert out["location"] == location
    assert out["message"] == f"{location}: {message}"


@pytest.mark.parametrize(
    "field, location, message",
    [
        ("n", "n", "algebra needs an integer top half-degree n"),
        ("p", "basis", "bad basis entry at index 0"),
    ],
    ids=["n-float", "basis-p-float"],
)
def test_non_integer_model_field_exits_3(capsys, tmp_path, torus1, field, location, message):
    blob = torus1.to_json()
    if field == "n":
        blob["n"] = 1.6
    else:
        blob["basis"][0]["p"] = 0.4
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out = run_json(capsys, ["ext-dims", "--model", str(path)])
    assert code == 3
    assert out["location"] == location
    assert out["message"] == f"{location}: {message}"


@pytest.mark.parametrize(
    "patch, range_text",
    [
        ({"d": {"5": [["1"]]}}, "[0, 1)"),
        ({"filtration": {"0": {"4": [["1"]]}, "1": {"0": []}}}, "[0, 1]"),
    ],
)
def test_degree_outside_the_complex_names_the_range(capsys, tmp_path, patch, range_text):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(square_complex(**patch)))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert range_text in out["message"]
    assert "rows" not in out["message"]


TWO_BY_ONE = {"degrees": [0, 1], "dims": {"0": 2, "1": 1}, "d": {"0": [["0", "0"]]}}


@pytest.mark.parametrize(
    "filtration, message, witness",
    [
        (
            {"1": {"0": [["1"], ["0"]]}, "2": {"0": [["0"], ["1"]]}},
            "lowest filtration level is not the whole space at degree 0",
            {"level": 1, "degree": 0},
        ),
        (
            {"0": {"0": [["1", "0"], ["0", "1"]]}, "1": {"0": [["1"], ["0"]]},
             "2": {"0": [["0"], ["1"]]}},
            "filtration is not decreasing at level 2, degree 0",
            {"level": 2, "degree": 0, "vector": ["0", "1"]},
        ),
    ],
    ids=["lowest-level-not-full", "not-decreasing"],
)
def test_filtration_shape_errors_exit_4_with_a_witness(
    capsys, tmp_path, filtration, message, witness
):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**TWO_BY_ONE, "filtration": filtration}))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 4
    assert out == {"error": "invariant", "message": message, "witness": witness}


E0, E1 = [["1"], ["0"]], [["0"], ["1"]]
FULL_2 = [["1", "0"], ["0", "1"]]


# the witness bytes are those the loader gave before it reused repeated bases
# and skipped the containment check of a level equal to the level below
@pytest.mark.parametrize(
    "filtration, expected",
    [
        # the bad level repeats the basis of a level two below it
        (
            {"0": {"0": FULL_2}, "1": {"0": E0}, "2": {"0": []}, "3": {"0": E0}},
            '{\n  "error": "invariant",\n  "message": "filtration is not decreasing at level 3,'
            ' degree 0",\n  "witness": {\n    "degree": 0,\n    "level": 3,\n    "vector": [\n'
            '      "1",\n      "0"\n    ]\n  }\n}\n',
        ),
        # the bad level is repeated at the level above it
        (
            {"0": {"0": FULL_2}, "1": {"0": E0}, "2": {"0": E0}, "3": {"0": E1}, "4": {"0": E1}},
            '{\n  "error": "invariant",\n  "message": "filtration is not decreasing at level 3,'
            ' degree 0",\n  "witness": {\n    "degree": 0,\n    "level": 3,\n    "vector": [\n'
            '      "0",\n      "1"\n    ]\n  }\n}\n',
        ),
        # the bad level repeats a level below it, and is repeated above it
        (
            {"0": {"0": FULL_2}, "1": {"0": E1}, "2": {"0": E0}, "3": {"0": E1}, "4": {"0": []}},
            '{\n  "error": "invariant",\n  "message": "filtration is not decreasing at level 2,'
            ' degree 0",\n  "witness": {\n    "degree": 0,\n    "level": 2,\n    "vector": [\n'
            '      "1",\n      "0"\n    ]\n  }\n}\n',
        ),
    ],
    ids=["repeats-below", "repeated-above", "repeats-and-repeated"],
)
def test_non_nested_repeated_level_exits_4_with_its_witness(
    capsys, tmp_path, filtration, expected
):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**TWO_BY_ONE, "filtration": filtration}))
    assert run_cli(capsys, ["compute", "--input", str(path)]) == (4, expected)


@pytest.mark.parametrize(
    "filtration, location, message",
    [
        # the first level in file order is level 1
        (
            {"1": {"0": [["x/0"], ["0"]]}, "0": {"0": FULL_2}, "2": {"0": [["x/0"], ["0"]]},
             "3": {"0": [["x/0"], ["0"]]}},
            "filtration.1.0",
            "bad rational literal 'x/0'",
        ),
        # JSON 1.0 and true compare equal to 1, but are no rational literals
        (
            {"0": {"0": FULL_2}, "1": {"0": [[1], [0]]}, "2": {"0": [[1.0], [0]]}},
            "filtration.2.0",
            "cannot interpret 1.0 as a rational",
        ),
        (
            {"0": {"0": FULL_2}, "1": {"0": [[1], [0]]}, "2": {"0": [[True], [0]]}},
            "filtration.2.0",
            "cannot interpret True as a rational",
        ),
    ],
    ids=["literal-at-three-levels", "float-after-int", "bool-after-int"],
)
def test_malformed_repeated_basis_exits_3_at_its_first_level(
    capsys, tmp_path, filtration, location, message
):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**TWO_BY_ONE, "filtration": filtration}))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert out == {"error": "parse", "location": location, "message": f"{location}: {message}"}


@pytest.mark.parametrize(
    "patch",
    [
        # without a d at that degree the complex itself refused it, with no witness
        {"dims": {"0": 1, "1": -2}, "d": {}},
        # with one, the d shape check named d.0 and "-2 rows"
        {"dims": {"0": 1, "1": -2}, "d": {"0": []}},
    ],
    ids=["no-d", "with-d"],
)
def test_negative_dimension_exits_3_at_its_key(capsys, tmp_path, patch):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**ONE_BY_ONE, **patch}))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert out == {
        "error": "parse",
        "location": "dims.1",
        "message": "dims.1: dimension must not be negative, found -2",
    }


def _rekey(tab, old, new):
    tab[new] = tab.pop(old)


def _first_coeff_key(blob):
    return next(iter(blob["products"]["1,2"]))


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda b: _rekey(b["products"], "1,2", "1,99"), "products"),
        (lambda b: _rekey(b["products"]["1,2"], _first_coeff_key(b), "99"), "products"),
        (lambda b: _rekey(b["products"], "1,2", "-1,2"), "products"),
        (lambda b: b["products"]["1,2"].update({_first_coeff_key(b): {"x": 1}}), "products"),
        (lambda b: b.update(unit=True), "unit"),
        (lambda b: b["omega"].update({"99": "1"}), "omega"),
        (lambda b: b["integral"].update({"99": "1"}), "integral"),
        (lambda b: b.update(roles={"a": 5}), "roles"),
        (lambda b: b["derivation"].update(values={"1": {"99": "1"}}), "values"),
        (lambda b: b["derivation"].update(bidegree=["a", 1]), "bidegree"),
    ],
    ids=[
        "product-index", "coefficient-index", "negative-index", "coefficient-object",
        "bool-unit", "omega-index", "integral-index", "roles-not-list",
        "derivation-index", "bidegree-not-int",
    ],
)
def test_malformed_model_exits_3_at_its_key(capsys, tmp_path, torus2, mutate, location):
    blob = torus2.to_json()
    blob["derivation"] = {"bidegree": [2, -1], "values": {}}
    mutate(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out = run_json(capsys, ["certify", "--algebra", str(path)])
    assert code == 3
    assert out["error"] == "parse"
    assert out["location"] == location


def _one_cell_of_a_complementary_pair(blob):
    # eta1 moves to xi1's cell (0, 1), so the cell (1, 0) of its complement is empty
    blob["basis"][2].update(p=0, q=1)
    del blob["products"]["1,2"], blob["products"]["2,1"]


@pytest.mark.parametrize(
    "mutate, message, witness",
    [
        (
            lambda b: b["basis"][2].update(name="xi1"),
            "basis names must be distinct",
            "xi1",
        ),
        (
            lambda b: b["basis"][3].update(p=2),
            "basis element xi1eta1 has total degree outside [0, 2]",
            "xi1eta1",
        ),
        (
            lambda b: b.update(unit=3),
            "unit 'xi1eta1' must sit in cell (0, 0)",
            "xi1eta1",
        ),
        (
            lambda b: b.update(integral={"1": "1"}),
            "integral is supported outside the top cell: xi1",
            "xi1",
        ),
        (
            lambda b: b.update(omega={"1": "1", "3": "1"}),
            "omega must be homogeneous of bidegree (1, 1)",
            ["xi1", "xi1eta1"],
        ),
        (
            _one_cell_of_a_complementary_pair,
            "complementary cells (0, 1) and (1, 0) have different dimensions",
            [0, 1],
        ),
    ],
    ids=["duplicate-name", "total-degree", "unit-cell", "integral-cell", "omega-bidegree",
         "complementary-dims"],
)
def test_model_invariant_errors_exit_4_with_a_witness(
    capsys, tmp_path, torus1, mutate, message, witness
):
    blob = torus1.to_json()
    mutate(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out = run_json(capsys, ["ext-dims", "--model", str(path)])
    assert code == 4
    assert out == {"error": "invariant", "message": message, "witness": witness}
