"""End-to-end CLI coverage: shapes, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from specseq import ObstructionDatum, build_model, d2_from_alpha
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

    def test_a_zero_coefficient_in_the_datum_is_dropped(self, capsys, tmp_path, torus2_path):
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps({"scale": "1", "images": {"xi1": {"eta1eta2": "0"}}}))
        code, out = run_json(capsys, ["d2", "--model", torus2_path, "--alpha", str(alpha)])
        assert code == 0
        assert out == {
            "datum": {"images": {"xi1": {}}, "scale": "1"},
            "derivation": {"bidegree": [2, -1], "values": {}},
            "is_zero": True,
            "model": "torus2",
            "serre_sign": {"ok": True, "witness": None},
        }

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

        zero = Derivation(alg, (2, -1), [{}] * alg.dim())
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
        zero = Derivation(alg, (2, -1), [{}] * alg.dim())
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
        zero = Derivation(alg, (2, -1), [{}] * alg.dim())
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
        bad = Derivation(alg, (1, 0), [{}] * alg.dim(), check=False)
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
        # ParseError prefixes the location, so the message names the path once
        assert out["message"] == "/no/such/file.json: no such file"

    def test_invalid_json_exits_3(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, out = run_json(capsys, ["compute", "--input", str(path)])
        assert code == 3
        assert "invalid JSON" in out["message"]

    @pytest.mark.parametrize("command", ["compute", "oracle", "decalage"])
    def test_repeated_filtration_level_exits_3_at_the_path(
        self, capsys, tmp_path, acyclic_fk, command
    ):
        blob = json.dumps(acyclic_fk.to_json())
        # level 1 given twice; without the check the second would win unseen
        level = '"1": {"0": [[]], "1": [["1"]]}'
        assert blob.count(level) == 1
        path = tmp_path / "repeated.json"
        path.write_text(blob.replace(level, f'"1": {{"0": [["1"]], "1": [["1"]]}}, {level}'))
        code, out = run_json(capsys, [command, "--input", str(path)])
        assert code == 3
        assert out == {
            "error": "parse",
            "message": f"{path}: invalid JSON: repeated key '1'",
            "location": str(path),
        }

    def test_repeated_integral_key_exits_3_at_the_path(self, capsys, tmp_path, torus1):
        blob = json.dumps(torus1.to_json())
        assert blob.count('"integral": {"3": "1"}') == 1
        path = tmp_path / "torus1.json"
        path.write_text(blob.replace('"integral": {"3": "1"}', '"integral": {"3": "5", "3": "1"}'))
        code, out = run_json(capsys, ["ext-dims", "--model", str(path)])
        assert code == 3
        assert out == {
            "error": "parse",
            "message": f"{path}: invalid JSON: repeated key '3'",
            "location": str(path),
        }

    @pytest.mark.parametrize(
        "case",
        ["directory", "not-utf8", "not-utf8-algebra", "deeply-nested", "long-integer",
         "unwritable-out"],
    )
    def test_io_error_exits_3_with_one_json_object_and_no_traceback(self, tmp_path, case):
        bad = tmp_path / "bad.json"
        if case == "directory":
            argv, location = ["compute", "--input", str(tmp_path)], str(tmp_path)
        elif case in ("deeply-nested", "long-integer"):
            bad.write_text("[" * 100_000 if case == "deeply-nested" else "1" * 5_000)
            argv, location = ["compute", "--input", str(bad)], str(bad)
        elif case == "unwritable-out":
            missing = tmp_path / "no-such-dir" / "x.json"
            argv, location = ["model", "torus", "--n", "1", "--out", str(missing)], "out"
        else:
            bad.write_bytes(b"\xff\xfe")
            flag = "--algebra" if case == "not-utf8-algebra" else "--input"
            command = "certify" if case == "not-utf8-algebra" else "compute"
            argv, location = [command, flag, str(bad)], str(bad)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src] + [env["PYTHONPATH"]] * bool(env.get("PYTHONPATH")))
        run = subprocess.run(
            [sys.executable, "-m", "specseq.cli", *argv], capture_output=True, env=env, timeout=120
        )
        assert run.returncode == 3, run.stderr.decode()
        assert b"Traceback" not in run.stderr
        # json.loads rejects anything after the first object
        out = json.loads(run.stdout)
        assert out["error"] == "parse"
        assert out["location"] == location

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

    @pytest.mark.parametrize("command", ["compute", "oracle", "decalage"])
    def test_page_bound_past_its_cap_exits_4_before_the_input_is_read(
        self, capsys, monkeypatch, command
    ):
        from specseq import FilteredComplex
        from specseq.cli import MAX_PAGES

        def unread(data):
            raise AssertionError("the input was read")

        monkeypatch.setattr(FilteredComplex, "from_json", staticmethod(unread))
        code, out = run_json(capsys, [command, "--input", "x", "--pages", str(10**12)])
        assert code == 4
        assert out["error"] == "invariant"
        assert out["message"] == f"page bound exceeds {MAX_PAGES}"
        assert out["witness"] == {"pages": 10**12}

    def test_page_bound_at_its_cap_is_accepted(self, capsys, acyclic_path):
        from specseq.cli import MAX_PAGES
        from specseq.filtered import MAX_LEVEL_SPAN

        assert MAX_PAGES == MAX_LEVEL_SPAN + 1
        argv = ["compute", "--input", acyclic_path, "--pages", str(MAX_PAGES)]
        code, out = run_json(capsys, argv)
        assert code == 0
        assert len(out["pages"]) == MAX_PAGES

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

    def test_doubled_turned_maps_fail_the_fuzz(self, capsys, monkeypatch):
        import specseq.spectral as sp
        from specseq import Matrix

        real = sp._differentials

        def doubled(cx, r, cells):
            # every d_r of a turned page times 2: the same ranks, so the same pages
            diffs = real(cx, r, cells)
            if r < 2:
                return diffs
            return {
                pq: Matrix.from_cols([[2 * a for a in col] for col in m.column_vectors()], m.rows)
                for pq, m in diffs.items()
            }

        monkeypatch.delenv("SS_THREADS", raising=False)
        monkeypatch.setattr(sp, "_differentials", doubled)
        code, out = run_json(capsys, ["fuzz", "--cases", "200"])
        assert code == 5
        assert out["counterexamples"] > 0
        for failure in out["failures"]:
            assert failure["kind"] == "complex"
            assert "differentials disagree" in failure["error"]
            assert failure["instance"]["filtration"]

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
        import concurrent.futures
        import os

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
        # cmd_fuzz imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


@pytest.mark.parametrize(
    "patch, location, message",
    [
        # with a d, the d range check named d.0 and "degree outside [1, 0)"
        ({"degrees": [1, 0]}, "degrees", "degrees [1, 0] have lo > hi"),
        # without one, the complex itself refused it with exit 4 and no witness
        ({"degrees": [1, 0], "d": {}}, "degrees", "degrees [1, 0] have lo > hi"),
        # a dims key outside the range was ignored, and the command exited 0
        ({"dims": {"0": 1, "1": 1, "2": 3}}, "dims.2", "degree outside [0, 1]"),
        ({"dims": {"-1": 0, "0": 1, "1": 1}}, "dims.-1", "degree outside [0, 1]"),
    ],
    ids=["degrees-with-d", "degrees-no-d", "dims-above", "dims-below"],
)
def test_degree_range_and_dims_keys_exit_3_at_their_key(
    capsys, tmp_path, patch, location, message
):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**ONE_BY_ONE, **patch}))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert out == {"error": "parse", "location": location, "message": f"{location}: {message}"}


# each one is rejected before anything of its size is allocated
@pytest.mark.parametrize(
    "patch, location, message",
    [
        ({"degrees": [0, 10**9]}, "degrees", "span of [0, 1000000000] exceeds 1000"),
        ({"degrees": [0, 1001]}, "degrees", "span of [0, 1001] exceeds 1000"),
        ({"dims": {"0": 1, "1": 10**9}}, "dims.1", "dimension 1000000000 exceeds 10000"),
        ({"dims": {"0": 1, "1": 10001}}, "dims.1", "dimension 10001 exceeds 10000"),
        ({"filtration": {**ONE_BY_ONE["filtration"], "1000000000": {}}}, "filtration",
         "span of [0, 1000000000] exceeds 1000"),
        ({"filtration": {**ONE_BY_ONE["filtration"], "-1001": {}}}, "filtration",
         "span of [-1001, 1] exceeds 1000"),
    ],
    ids=["degrees-huge", "degrees-over", "dims-huge", "dims-over", "levels-huge", "levels-over"],
)
def test_oversized_complex_exits_3_at_its_key(capsys, tmp_path, patch, location, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**ONE_BY_ONE, **patch}))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert out == {"error": "parse", "location": location, "message": f"{location}: {message}"}


def _without(blob, key):
    return {k: v for k, v in blob.items() if k != key}


# the documented exit-3 locations of malformed containers, one input each
@pytest.mark.parametrize(
    "command, patch, location, message",
    [
        ("complex", lambda b: {**b, "dims": []}, "dims", "dims must be an object"),
        ("complex", lambda b: {**b, "d": []}, "d", "d must be an object"),
        ("complex", lambda b: {**b, "filtration": {}}, "filtration",
         "filtration must be a non-empty object"),
        ("complex", lambda b: {**b, "filtration": {"0": []}}, "filtration",
         "level 0 must be an object"),
        ("model", lambda b: {**b, "basis": []}, "basis", "basis must be a non-empty list"),
        ("model", lambda b: {**b, "products": []}, "products", "products must be an object"),
        ("model", lambda b: {**b, "products": {"0,0": []}}, "products",
         "product '0,0' must be an object"),
        ("model", lambda b: _without(b, "integral"), "integral", "model needs an integral"),
        ("model", lambda b: {**b, "roles": []}, "roles", "roles must be an object"),
        ("derivation", lambda b: {**b, "values": []}, "values", "values must be an object"),
        ("derivation", lambda b: {**b, "values": {"0": []}}, "values",
         "value of '0' must be an object"),
        ("datum", lambda b: {**b, "images": {"xi1": []}}, "images",
         "image of 'xi1' must be an object"),
        ("datum", lambda b: {**b, "images": {"xi1": {"eta1eta2": "x/0"}}}, "images",
         "bad coefficients for 'xi1'"),
    ],
    ids=[
        "dims-list", "d-list", "filtration-empty", "level-list", "basis-empty", "products-list",
        "product-list", "no-integral", "roles-list", "values-list", "value-list", "image-list",
        "image-literal",
    ],
)
def test_malformed_container_exits_3_at_its_location(
    capsys, tmp_path, torus2, command, patch, location, message
):
    docs = {
        "complex": ONE_BY_ONE,
        "model": torus2.to_json(),
        "derivation": {"bidegree": [2, -1], "values": {}},
        "datum": alpha_blob(),
    }
    docs[command] = patch(docs[command])
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = {
        "complex": ["compute", "--input", paths["complex"]],
        "model": ["ext-dims", "--model", paths["model"]],
        "derivation": ["certify", "--algebra", paths["model"], "--derivation", paths["derivation"]],
        "datum": ["d2", "--model", paths["model"], "--alpha", paths["datum"]],
    }[command]
    code, out = run_json(capsys, [str(a) for a in argv])
    assert code == 3
    assert out == {"error": "parse", "location": location, "message": f"{location}: {message}"}


def test_complex_json_writes_only_its_degrees():
    from specseq import CochainComplex

    cx = CochainComplex(0, 1, {-1: 4, 0: 1, 1: 1, 2: 3}, {})
    assert cx.to_json()["dims"] == {"0": 1, "1": 1}
    assert CochainComplex.from_json(cx.to_json()) == cx


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
        (lambda b: b.update(roles={"h0_omega1": ["nope"], "h1_O": []}), "roles"),
    ],
    ids=[
        "product-index", "coefficient-index", "negative-index", "coefficient-object",
        "bool-unit", "omega-index", "integral-index", "roles-not-list",
        "derivation-index", "bidegree-not-int", "role-name-unknown",
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


ONE_BY_ONE_LEVELS = ONE_BY_ONE["filtration"]


# int() reads each of these keys as an integer key of the valid complex, so
# two spellings of one key overwrote each other
@pytest.mark.parametrize(
    "patch, location, message",
    [
        ({"filtration": {"0_0": ONE_BY_ONE_LEVELS["0"], "1": ONE_BY_ONE_LEVELS["1"]}},
         "filtration", "bad level key '0_0'"),
        ({"filtration": {**ONE_BY_ONE_LEVELS, " 0": {"0": [], "1": []}}},
         "filtration", "bad level key ' 0'"),
        ({"filtration": {"0": {"+0": [["1"]], "1": [["1"]]}, "1": ONE_BY_ONE_LEVELS["1"]}},
         "filtration", "bad degree key '+0'"),
        ({"d": {"+0": [["1"]]}}, "d", "bad degree key '+0'"),
        ({"dims": {"\u0660": 1, "1": 1}}, "dims", "dims keys and values must be integers"),
    ],
    ids=["level-underscore", "level-space", "filtration-degree-plus", "d-plus", "dims-arabic"],
)
def test_non_canonical_complex_key_exits_3(capsys, tmp_path, patch, location, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**ONE_BY_ONE, **patch}))
    code, out = run_json(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert out == {"error": "parse", "location": location, "message": f"{location}: {message}"}


# (mutate(blob, key), location, what the message calls the table the key is in)
KEY_POSITIONS = {
    "product-left": (lambda b, k: _rekey(b["products"], "1,2", f"{k},2"), "products",
                     lambda k: f"product {k + ',2'!r}"),
    "product-right": (lambda b, k: _rekey(b["products"], "1,2", f"1,{k}"), "products",
                      lambda k: f"product {'1,' + k!r}"),
    "coefficient": (lambda b, k: _rekey(b["products"]["1,2"], "5", k), "products",
                    lambda k: "product '1,2'"),
    "omega": (lambda b, k: _rekey(b["omega"], "9", k), "omega", lambda k: "omega"),
    "integral": (lambda b, k: _rekey(b["integral"], "15", k), "integral", lambda k: "integral"),
    "derivation": (lambda b, k: b["derivation"].update(values={k: {}}), "values",
                   lambda k: "values"),
    "derivation-coefficient": (lambda b, k: b["derivation"].update(values={"1": {k: "1"}}),
                               "values", lambda k: "value of '1'"),
}


def _spelled_key_cases():
    """Each spelling a canonical in-range key is not, and str(dim), at each position.

    torus2 has 16 basis elements. The messages are those the loader gave
    when each key went through int() and str().
    """
    for position, (mutate, location, what) in KEY_POSITIONS.items():
        for k, name in [("01", "zero"), ("+1", "plus"), (" 1", "space"), ("-0", "minus-zero"),
                        ("16", "dim")]:
            if k == "16":
                message = f"basis index 16 in {what(k)} is outside [0, 16)"
            else:
                message = f"bad basis index {k!r} in {what(k)}"
            yield pytest.param(
                lambda b, mutate=mutate, k=k: mutate(b, k), location, message,
                id=f"{position}-{name}",
            )


def _set_coefficient(b, table, key, value):
    (b[table] if table in ("omega", "integral") else b["products"][table])[key] = value


# a bad literal or a JSON true or 1.0 read after good literals, which the
# reader keeps: none of them may stand in for it
BAD_COEFFICIENTS = [
    pytest.param(lambda b: _set_coefficient(b, "1,2", "5", "1/0"), "products",
                 "bad coefficients in product '1,2'", id="zero-denominator"),
    pytest.param(lambda b: (_set_coefficient(b, "1,2", "5", "1/0"),
                            _set_coefficient(b, "1,3", "6", "1/0")), "products",
                 "bad coefficients in product '1,2'", id="zero-denominator-twice"),
    pytest.param(lambda b: _set_coefficient(b, "4,3", "10", "1/0"), "products",
                 "bad coefficients in product '4,3'", id="zero-denominator-late"),
    pytest.param(lambda b: _set_coefficient(b, "omega", "9", "1/0"), "omega",
                 "bad coefficients in omega", id="omega-zero-denominator"),
    pytest.param(lambda b: _set_coefficient(b, "integral", "15", "1/0"), "integral",
                 "bad coefficients in integral", id="integral-zero-denominator"),
    pytest.param(lambda b: _set_coefficient(b, "1,2", "5", True), "products",
                 "bad coefficients in product '1,2'", id="true"),
    pytest.param(lambda b: _set_coefficient(b, "1,2", "5", 1.0), "products",
                 "bad coefficients in product '1,2'", id="float"),
    pytest.param(lambda b: _set_coefficient(b, "omega", "9", True), "omega",
                 "bad coefficients in omega", id="omega-true"),
    pytest.param(lambda b: _set_coefficient(b, "integral", "15", 1.0), "integral",
                 "bad coefficients in integral", id="integral-float"),
    pytest.param(lambda b: b["derivation"].update(values={"1": {"10": "1", "13": True}}),
                 "values", "bad coefficients in value of '1'", id="derivation-true"),
    pytest.param(lambda b: b["derivation"].update(values={"1": {"10": "1", "13": 1.0}}),
                 "values", "bad coefficients in value of '1'", id="derivation-float"),
]


@pytest.mark.parametrize(
    "mutate, location, message",
    [
        pytest.param(lambda b: _rekey(b["products"], "3,0", "3_0,0"), "products",
                     "bad basis index '3_0' in product '3_0,0'", id="product-key"),
        pytest.param(lambda b: _rekey(b["products"]["1,2"], _first_coeff_key(b), "+5"),
                     "products", "bad basis index '+5' in product '1,2'", id="coefficient-key"),
        pytest.param(lambda b: _rekey(b["omega"], "6", "06"), "omega",
                     "bad basis index '06' in omega", id="omega-key"),
        pytest.param(lambda b: _rekey(b["integral"], "15", " 15"), "integral",
                     "bad basis index ' 15' in integral", id="integral-key"),
        pytest.param(lambda b: b["derivation"].update(values={"+1": {}}), "values",
                     "bad basis index '+1' in values", id="derivation-key"),
        pytest.param(lambda b: b["basis"][1].update(name=5), "basis",
                     "basis name at index 1 must be a string", id="name-int"),
        pytest.param(lambda b: b["basis"][1].update(name={"a": 1}), "basis",
                     "basis name at index 1 must be a string", id="name-object"),
        *_spelled_key_cases(),
        *BAD_COEFFICIENTS,
    ],
)
def test_non_canonical_model_key_or_name_exits_3(
    capsys, tmp_path, torus2, mutate, location, message
):
    blob = torus2.to_json()
    blob["derivation"] = {"bidegree": [2, -1], "values": {}}
    mutate(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out = run_json(capsys, ["certify", "--algebra", str(path)])
    assert code == 3
    assert out == {"error": "parse", "location": location, "message": f"{location}: {message}"}


@pytest.mark.parametrize("command", ["ext-dims", "product"])
def test_unknown_role_name_exits_3_at_roles(capsys, tmp_path, torus1, command):
    blob = {**torus1.to_json(), "roles": {"h0_omega1": ["nope"], "h1_O": []}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    argv = (["ext-dims", "--model", str(path)] if command == "ext-dims"
            else ["model", "product", "--a", str(path), "--b", str(path)])
    code, out = run_json(capsys, argv)
    assert code == 3
    assert out == {
        "error": "parse", "location": "roles", "message": "roles: no basis element named 'nope'",
    }


def test_model_n_past_its_cap_exits_3_before_anything_is_built(
    capsys, tmp_path, torus1, monkeypatch
):
    from specseq.lefschetz import PolarizedAlgebra
    from specseq.models import MAX_MODEL_N

    def spin(self):
        raise AssertionError("the hard Lefschetz check ran")

    monkeypatch.setattr(PolarizedAlgebra, "hard_lefschetz_failure", spin)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**torus1.to_json(), "n": 10**12, "integral": {}}))
    code, out = run_json(capsys, ["ext-dims", "--model", str(path)])
    assert code == 3
    assert out == {
        "error": "parse", "location": "n",
        "message": f"n: top half-degree {10**12} exceeds {MAX_MODEL_N}",
    }


def test_model_n_at_its_cap_is_read(capsys, tmp_path, torus1):
    from specseq.models import MAX_MODEL_N

    path = tmp_path / "model.json"
    path.write_text(json.dumps({**torus1.to_json(), "n": MAX_MODEL_N, "integral": {}}))
    code, out = run_json(capsys, ["ext-dims", "--model", str(path)])
    assert code == 4
    assert out["message"].startswith("hard Lefschetz fails at power")


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


# malformed JSON: random changes to a model, a derivation, a datum and a complex

JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from([0.5, 1.0, -2.0]),
    st.sampled_from(["", "1", "-1", "1/2", "x/0", "0_1", " 1", "+1", "\u0663", "xi1", "eta1"]),
    st.text(max_size=3),
)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
JSON_KEY = st.one_of(
    st.sampled_from(["0", "1", "15", "16", "-1", "+1", " 1", "1_0", "01", "1,2", "2,1,", "xi1"]),
    st.text(max_size=3),
)


def json_slots(doc) -> list:
    """(container, key) for every value inside doc, in document order."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        out.extend(json_slots(value))
    return out


def mutated_json(doc, data):
    """doc with one to three values replaced, deleted or re-keyed, the whole
    document included."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from([(None, None), *json_slots(doc)]))
        kind = data.draw(st.sampled_from(["replace", "delete", "rekey"]))
        if container is None:
            doc = data.draw(JSON_VALUE)
        elif kind == "replace":
            container[key] = data.draw(JSON_VALUE)
        elif kind == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[data.draw(JSON_KEY)] = container.pop(key)
    return doc


@pytest.fixture(scope="module")
def malformed_inputs(tmp_path_factory):
    model = build_model("torus", 2)
    alpha = alpha_blob()
    derivation = d2_from_alpha(ObstructionDatum.from_json(model, alpha)).to_json()
    root = tmp_path_factory.mktemp("malformed")
    (root / "pn1.json").write_text(json.dumps(build_model("pn", 1).to_json()))
    docs = {
        "model": {**model.to_json(), "derivation": derivation},
        "derivation": derivation,
        "alpha": alpha,
    }
    return root, docs


MALFORMED_COMMANDS = (
    ["certify", "--algebra", "{model}"],
    ["certify", "--algebra", "{model}", "--derivation", "{derivation}"],
    ["d2", "--model", "{model}", "--alpha", "{alpha}"],
    ["ext-dims", "--model", "{model}"],
    ["model", "product", "--a", "{model}", "--b", "{pn1}"],
)


def run_mutated(root, docs, paths, commands, data):
    """Mutate one of docs, write them all under root and run one of commands
    on them: the exit is a documented code with one JSON object on stdout."""
    target = data.draw(st.sampled_from(sorted(docs)))
    docs = {**docs, target: mutated_json(docs[target], data)}
    paths = dict(paths)
    for name, doc in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = [a.format(**paths) for a in data.draw(st.sampled_from(commands))]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    event(f"exit {code}")
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    assert code in (0, 2, 3, 4, 5)
    assert report.get("error") == {3: "parse", 4: "invariant", 5: "engine"}.get(code)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_malformed_model_json_exits_with_one_json_object(malformed_inputs, data):
    root, docs = malformed_inputs
    run_mutated(root, docs, {"pn1": root / "pn1.json"}, MALFORMED_COMMANDS, data)


MALFORMED_COMPLEX_COMMANDS = (
    ["compute", "--input", "{complex}"],
    ["compute", "--input", "{complex}", "--with-maps"],
    ["oracle", "--input", "{complex}"],
    ["decalage", "--input", "{complex}"],
)


@pytest.fixture(scope="module")
def malformed_complex(tmp_path_factory):
    import random

    from specseq.fuzz import random_filtered_complex

    # d_1 and d_2 are nonzero here, so every command has pages to turn
    doc = random_filtered_complex(random.Random(0)).to_json()
    return tmp_path_factory.mktemp("malformed-complex"), {"complex": doc}


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_malformed_complex_json_exits_with_one_json_object(malformed_complex, data):
    root, docs = malformed_complex
    run_mutated(root, docs, {}, MALFORMED_COMPLEX_COMMANDS, data)


# the stdout writer against json.dumps(obj, sort_keys=True, indent=2)

WRITER_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", '\\"', "\n\t\r\b\f", "\x00\x1f\x7f", "é ξ 😀", " \ud800"]),
)
WRITER_INT = st.one_of(
    st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
)
WRITER_TREE = st.recursive(
    st.one_of(st.none(), st.booleans(), WRITER_INT, WRITER_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(WRITER_TEXT, inner, max_size=4),
        st.dictionaries(WRITER_INT, inner, max_size=4),
    ),
    max_leaves=40,
)


@given(WRITER_TREE)
@settings(max_examples=300, deadline=None)
def test_writer_is_json_dumps_sorted_and_indented(obj):
    from specseq.cli import _dumps

    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "obj",
    [{"a": [Fraction(1, 2)]}, [{1, 2}], {"a": None, 1: 2}, {(1, 2): 3}, {"a": [0.5]}],
    ids=["fraction", "set", "mixed-keys", "tuple-key", "float"],
)
def test_writer_refuses_what_the_commands_never_emit(obj):
    from specseq.cli import _dumps

    with pytest.raises(TypeError):
        _dumps(obj)
