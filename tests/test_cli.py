import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import itofourier
from itofourier import cli, errors, quadrature, validation
from itofourier.basis import BasisSystem, Interval
from itofourier.cli import run_cli
from itofourier.coefficients import coefficient_tensor, read_coefficient_table
from itofourier.expansion import truncated_expansion
from itofourier.kernel import constant_spec
from itofourier.stochastic import gaussian_pool

UNIT = Interval(0.0, 1.0)


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "spec": {"t": 0.0, "T": 1.0, "k": 2, "indices": [1, 2],
                 "weights": [{"poly": [1]}, {"poly": [1]}]},
        "basis": "legendre",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCoeffs:
    def test_writes_documented_format(self, config_path, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(["coeffs", "--config", config_path, "--orders", "3,3",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format_version"] == "1"
        assert header["orders"] == [3, 3]
        assert lines[1] == "j1,j2,value"
        assert len(lines) == 2 + 16

    def test_round_trip_matches_in_memory(self, config_path, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["coeffs", "--config", config_path, "--orders", "2,2",
                        "--out", str(out)]) == 0
        table = read_coefficient_table(out)
        spec = constant_spec(UNIT, (1, 2))
        fresh = coefficient_tensor(spec, BasisSystem.LEGENDRE, (2, 2))
        assert np.array_equal(table.values, fresh.values)

    def test_orders_arity_checked(self, config_path, tmp_path, capsys):
        code = run_cli(["coeffs", "--config", config_path, "--orders", "3",
                        "--out", str(tmp_path / "c.csv")])
        assert code == 1
        assert "orders" in capsys.readouterr().err


# sha256 of the coeffs tables of README's version notes (spec (1, 2, 1),
# weights 1, 1+s, 1 on [0, 1]), with numpy 2.4 and OpenBLAS 0.3.31
# (SkylakeX kernel)
README_SPEC = {"t": 0.0, "T": 1.0, "k": 3, "indices": [1, 2, 1],
               "weights": [{"poly": [1]}, {"poly": [1, 1]}, {"poly": [1]}]}
TRIG16_SHA256 = "57a130f134136bfdb771b7fa7ba6b28e5272bd234373283565361d3b813d3bdc"
TABLE_SHA256 = {
    ("legendre", 12): "404d598f1efb95944ec87f2451b679f78fdf0d8cd8d9eafba4291a8ac4d6e82a",
    ("haar", 31): "7bbe59aaa9f51f0c6e1b7fa0b26470fed39744b8dec3824242b27ce7a8711be9",
    ("walsh", 31): "55be883105516bc81bc21a9b3e517cef992a41278ddaf605618e764851c7fb6c",
}


def _openblas_config() -> str:
    """openblas_get_config of the OpenBLAS the package found, else ''."""
    if (blas := itofourier._openblas()) is None:
        return ""
    get_config = getattr(blas[0], blas[1].replace("set_num_threads", "get_config"))
    get_config.restype = ctypes.c_char_p
    return get_config().decode()


def _pinned_blas() -> bool:
    """Whether numpy and its OpenBLAS kernel are those the sha256 were taken with."""
    blas = _openblas_config()  # such as "OpenBLAS 0.3.31.188.0 ... SkylakeX MAX_THREADS=64"
    return (np.__version__.startswith("2.4.") and blas.startswith("OpenBLAS 0.3.31")
            and "SkylakeX" in blas.split())


def test_trigonometric_table_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # the trigonometric 16 table is the one README table whose bytes once
    # followed the BLAS thread count; each run is a fresh process
    if shutil.which("taskset") is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs taskset and at least 2 CPUs")
    config = tmp_path / "trig.json"
    config.write_text(json.dumps({"spec": README_SPEC, "basis": "trigonometric"}))
    src = os.path.dirname(os.path.dirname(itofourier.__file__))
    digests = []
    for pin in ([], ["taskset", "-c", str(min(os.sched_getaffinity(0)))]):
        out = tmp_path / f"table{len(pin)}.csv"
        subprocess.run(pin + [sys.executable, "-m", "itofourier", "coeffs", "--config",
                              str(config), "--orders", "16,16,16", "--out", str(out)],
                       env={**os.environ, "PYTHONPATH": src}, check=True)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    if _pinned_blas():
        assert digests[0] == TRIG16_SHA256


@pytest.mark.parametrize("basis, order", list(TABLE_SHA256), ids=str)
def test_readme_table_keeps_its_bytes(basis, order, tmp_path):
    if not _pinned_blas():
        pytest.skip("the sha256 were taken with numpy 2.4 and OpenBLAS 0.3.31 (SkylakeX)")
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"spec": README_SPEC, "basis": basis}))
    out = tmp_path / "table.csv"
    assert run_cli(["coeffs", "--config", str(config), "--orders", f"{order},{order},{order}",
                    "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_SHA256[basis, order]


class TestApproximate:
    def test_bit_exact_round_trip(self, config_path, tmp_path):
        table_path = tmp_path / "c.csv"
        out_path = tmp_path / "value.json"
        assert run_cli(["coeffs", "--config", config_path, "--orders", "3,3",
                        "--out", str(table_path)]) == 0
        assert run_cli(["approximate", "--table", str(table_path), "--seed", "42",
                        "--out", str(out_path)]) == 0
        got = json.loads(out_path.read_text())
        spec = constant_spec(UNIT, (1, 2))
        tensor = coefficient_tensor(spec, BasisSystem.LEGENDRE, (3, 3))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 3, seed=42)
        expected = truncated_expansion(tensor, pool)
        assert got["value"] == expected.value  # bit-exact via 17-digit table
        assert got["terms_evaluated"] == expected.terms_evaluated

    def test_seed_required(self, config_path, tmp_path, capsys):
        table_path = tmp_path / "c.csv"
        run_cli(["coeffs", "--config", config_path, "--orders", "1,1",
                 "--out", str(table_path)])
        code = run_cli(["approximate", "--table", str(table_path)])
        assert code == 1
        assert "seed" in capsys.readouterr().err


class TestValidate:
    def test_report_document(self, config_path, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["validate", "--config", config_path, "--orders", "0,0",
                        "--paths", "200", "--steps", "128", "--seed", "42",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        for field in ("samples", "mean_sq_diff", "std_error", "parseval", "bound_ms",
                      "bound_2n", "grid_allowance", "pass", "config"):
            assert field in doc
        assert doc["samples"] == 200
        assert doc["parseval"] == pytest.approx(0.25)
        assert doc["config"]["seed"] == 42

    def test_moment_block_when_n_given(self, config_path, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["validate", "--config", config_path, "--orders", "0,0",
                        "--paths", "150", "--steps", "128", "--seed", "7",
                        "--n", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["bound_2n"] is not None
        assert doc["moment"]["moment_degree"] == 4

    @pytest.mark.parametrize("n", [None, 1, 2])
    def test_document_is_strong_error_estimate_and_config(self, config_path, tmp_path, n):
        out = tmp_path / "report.json"
        argv = ["validate", "--config", config_path, "--orders", "1,0", "--paths", "150",
                "--steps", "128", "--seed", "7", "--out", str(out)]
        assert run_cli(argv + ([] if n is None else ["--n", str(n)])) == 0
        doc = json.loads(out.read_text())
        assert doc.pop("config")["n"] == n
        spec = constant_spec(UNIT, (1, 2))
        diffs, tensor = validation.sample_differences(spec, BasisSystem.LEGENDRE, (1, 0),
                                                      150, 128, 7)
        assert (json.dumps(validation.strong_error_estimate(diffs, tensor, 128, n),
                           sort_keys=True) == json.dumps(doc, sort_keys=True))

    def test_one_simulation_feeds_both_reports(self, config_path, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return validation.sample_differences(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_differences", counting)
        out = tmp_path / "report.json"
        assert run_cli(["validate", "--config", config_path, "--orders", "0,0",
                        "--paths", "150", "--steps", "128", "--seed", "7",
                        "--n", "2", "--out", str(out)]) == 0
        assert len(calls) == 1
        doc = json.loads(out.read_text())
        assert doc["moment"]["samples"] == doc["samples"] == 150

    def test_bad_moment_degree_fails_before_simulating(self, config_path, tmp_path,
                                                       capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "sample_differences", lambda *a, **k: calls.append(a))
        out = tmp_path / "report.json"
        for value in ("3", "0"):
            assert run_cli(["validate", "--config", config_path, "--orders", "0,0",
                            "--paths", "2000", "--steps", "4096", "--seed", "7",
                            "--n", value, "--out", str(out)]) == 1
            assert "config.n" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_threads_do_not_change_bytes(self, config_path, tmp_path):
        outs = []
        for threads, name in ((1, "a.json"), (8, "b.json")):
            out = tmp_path / name
            assert run_cli(["--threads", str(threads), "validate", "--config",
                            config_path, "--orders", "1,1", "--paths", "150",
                            "--steps", "128", "--seed", "11", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_supplies_run_fields(self, tmp_path):
        doc = {
            "spec": {"t": 0.0, "T": 1.0, "k": 2, "indices": [1, 2],
                     "weights": [{"poly": [1]}, {"poly": [1]}]},
            "basis": "legendre",
            "orders": [0, 0],
            "seed": 3,
            "n_paths": 120,
            "N": 64,
        }
        cfg = tmp_path / "full.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run_cli(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["samples"] == 120

    def test_flags_override_config(self, tmp_path):
        doc = {
            "spec": {"t": 0.0, "T": 1.0, "k": 2, "indices": [1, 2],
                     "weights": [{"poly": [1]}, {"poly": [1]}]},
            "basis": "legendre", "orders": [0, 0], "seed": 3,
            "n_paths": 120, "N": 64,
        }
        cfg = tmp_path / "full.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run_cli(["validate", "--config", str(cfg), "--paths", "150",
                        "--out", str(out)]) == 0
        assert json.loads(out.read_text())["samples"] == 150


class TestErrors:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spec": ')
        assert run_cli(["coeffs", "--config", str(bad), "--orders", "1,1",
                        "--out", str(tmp_path / "c.csv")]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_config_integer_over_4300_digits_named(self, config_path, tmp_path, capsys):
        # json.load raises a plain ValueError for it, not a JSONDecodeError
        cfg = tmp_path / "cfg.json"
        with open(config_path) as fh:
            text = fh.read()
        cfg.write_text(text[:-1] + ', "seed": ' + "1" * 5000 + "}")
        assert run_cli(["validate", "--config", str(cfg), "--orders", "0,0", "--paths",
                        "100", "--steps", "16"]) == 1
        assert capsys.readouterr().err.startswith("error: config: ")

    def test_unknown_field_named(self, tmp_path, capsys):
        doc = {"spec": {"t": 0, "T": 1, "k": 1, "indices": [1],
                        "weights": [{"poly": [1]}]}, "mystery": True}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["coeffs", "--config", str(cfg), "--orders", "1",
                        "--basis", "legendre", "--out", str(tmp_path / "c.csv")]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_bad_basis_name(self, config_path, tmp_path, capsys):
        assert run_cli(["coeffs", "--config", config_path, "--orders", "1,1",
                        "--basis", "chebyshev", "--out", str(tmp_path / "c.csv")]) == 1
        assert "chebyshev" in capsys.readouterr().err

    def test_capacity_error(self, config_path, tmp_path, capsys):
        assert run_cli(["coeffs", "--config", config_path, "--orders", "100000,10000",
                        "--out", str(tmp_path / "c.csv")]) == 1
        assert "cap" in capsys.readouterr().err

    def test_weight_degree_over_node_cap_fails_fast(self, tmp_path, capsys, monkeypatch):
        # a regression must fail here, not build the 80 GB rule of 100 002 nodes
        real = quadrature.gauss_rule
        monkeypatch.setattr(quadrature, "gauss_rule",
                            lambda n: pytest.fail(f"{n}-node rule built") if n > 4096 else real(n))
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"spec": {
            "t": 0.0, "T": 1.0, "k": 1, "indices": [1],
            "weights": [{"poly": [0.0] * 10**5 + [1.0]}]}, "basis": "legendre"}))
        start = time.perf_counter()
        assert run_cli(["coeffs", "--config", str(config), "--orders", "0",
                        "--out", str(tmp_path / "c.csv")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "weight degrees [100000]" in err and "100002 nodes > cap 4096" in err

    def test_numeric_failure_exits_two(self, config_path, tmp_path, capsys,
                                        monkeypatch):
        from itofourier import cli
        from itofourier.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("coefficient tensor contains non-finite entries")

        monkeypatch.setattr(cli, "coefficient_tensor", boom)
        assert run_cli(["coeffs", "--config", config_path, "--orders", "1,1",
                        "--out", str(tmp_path / "c.csv")]) == 2
        assert "numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [[], ["--n", "2"]], ids=["no-n", "n2"])
    def test_sample_that_overflows_exits_two(self, tmp_path, capsys, n):
        # T - t = 1e308 is finite, but D**2 is not; no numpy warning escapes
        spec = {"t": 0.0, "T": 1e308, "k": 2, "indices": [1, 2],
                "weights": [{"poly": [1]}, {"poly": [1]}]}
        doc = {"spec": spec, "basis": "legendre", "orders": [1, 1], "seed": 1,
               "n_paths": 100, "N": 16, "out": str(tmp_path / "out")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["validate", "--config", str(cfg)] + n) == 2
        assert "numeric error: sample moment E[D**2]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_below_one_rejected(self, config_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        for value in ("0", "-3"):
            code = run_cli(["--threads", value, "validate", "--config", config_path,
                            "--orders", "0,0", "--paths", "100", "--steps", "16",
                            "--seed", "1", "--out", str(out)])
            assert code == 1
            assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["coeffs", "validate"])
    @pytest.mark.parametrize("field, value, named", [
        ("k", "x", "k"),
        ("k", float("inf"), "k"),
        ("k", 2.9, "k"),
        ("k", True, "k"),
        ("t", "a", "t"),
        ("indices", ["a", 2], "indices"),
        ("indices", [1.7, 2.2], "indices"),
        ("indices", [True, 2], "indices"),
        ("weights", 3, "weights"),
        ("weights", [{"poly": 1}, {"poly": [1]}], "weights: poly"),
        ("weights", [{"poly": ["z"]}, {"poly": [1]}], "weights: poly"),
        ("weights", [{"poly": [float("nan")]}, {"poly": [1]}], "weights: poly"),
        ("weights", [{"poly": [1]}, {"poly": [1, float("-inf")]}], "weights: poly"),
    ], ids=["k-str", "k-inf", "k-float", "k-bool", "t-str", "indices-str", "indices-float",
            "indices-bool", "weights-int", "poly-int", "poly-str", "poly-nan", "poly-inf"])
    def test_spec_field_of_wrong_type_named(self, tmp_path, capsys, command, field, value,
                                            named):
        spec = {"t": 0.0, "T": 1.0, "k": 2, "indices": [1, 2],
                "weights": [{"poly": [1]}, {"poly": [1]}], field: value}
        doc = {"spec": spec, "basis": "legendre", "orders": [0, 0], "seed": 1,
               "n_paths": 100, "N": 16, "out": str(tmp_path / "out")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli([command, "--config", str(cfg)]) == 1
        assert f"config.spec: {named}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["coeffs", "validate"])
    def test_interval_whose_length_overflows_named(self, tmp_path, capsys, command):
        spec = {"t": -1e308, "T": 1e308, "k": 2, "indices": [1, 2],
                "weights": [{"poly": [1]}, {"poly": [1]}]}
        doc = {"spec": spec, "basis": "legendre", "orders": [0, 0], "seed": 1,
               "n_paths": 100, "N": 16, "out": str(tmp_path / "out")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli([command, "--config", str(cfg)]) == 1
        assert "config.spec: interval endpoints and T - t must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("basis", 3), ("seed", float("inf")),
                                              ("n_paths", float("inf")), ("seed", True),
                                              ("n_paths", 100.9), ("N", 64.7), ("N", 0),
                                              ("n", 1.5), ("orders", [1.9, 0.5])])
    def test_run_field_of_wrong_type_named(self, config_path, tmp_path, capsys, field, value):
        with open(config_path) as fh:
            doc = json.load(fh)
        doc.update({"orders": [0, 0], "seed": 1, "n_paths": 100, "N": 16, field: value})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["validate", "--config", str(cfg)]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda lines: lines[:2] + ["1.5,0,0.25"] + lines[3:], "'1.5,0,0.25'"),
        (lambda lines: lines[:2] + ["1,0,abc"] + lines[3:], "'1,0,abc'"),
        (lambda lines: ["1"] + lines[1:], "header must be a JSON object"),
        (lambda lines: [lines[0].replace('"orders": [1, 1]', '"orders": ["a", 1]')]
         + lines[1:], "orders: expected an integer, got 'a'"),
        (lambda lines: [lines[0].replace('"orders": [1, 1]', '"orders": 3')] + lines[1:],
         "orders: expected a sequence of integers, got 3"),
        (lambda lines: [lines[0].replace('"orders": [1, 1]', '"orders": [1.5, 1]')]
         + lines[1:], "orders: expected an integer, got 1.5"),
        (lambda lines: [lines[0].replace('"orders": [1, 1]', '"orders": [-3, 1]')]
         + lines[1:], "orders must be >= 0"),
        (lambda lines: [lines[0].replace('"orders": [1, 1]', '"orders": [1, 1' + "0" * 5000 + "]")]
         + lines[1:], "header is not valid JSON"),
        (lambda lines: [lines[0].replace('"basis": "legendre"', '"basis": 3')] + lines[1:],
         "basis name must be a string"),
        (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:],
         "bad coefficient row: '1,0,"),
        (lambda lines: lines[:3] + [lines[2]] + lines[4:], "bad coefficient row: '0,0,"),
        (lambda lines: lines[:5] + ["2" + lines[5][1:]], "bad coefficient row: '2,1,"),
        (lambda lines: lines[:3] + ["0" + lines[3]] + lines[4:],
         "bad coefficient row: '01,0,"),
        (lambda lines: lines + ["0,0,0.5"], "bad coefficient row: '0,0,0.5'"),
        (lambda lines: lines[:-1], "coefficient table ends before row '1,1,...'"),
        (lambda lines: lines[:2] + ["0,0,nan"] + lines[3:], "bad coefficient row: '0,0,nan'"),
        (lambda lines: lines[:2] + ["0,0,inf"] + lines[3:], "bad coefficient row: '0,0,inf'"),
        (lambda lines: [lines[0].replace('"orders": [1, 1]', '"orders": [1, 1, 1]')]
         + lines[1:], "orders must have 2 entries"),
        (lambda lines: [lines[0].replace('"poly": [1.0]', '"poly": [NaN]', 1)] + lines[1:],
         "weights: poly: coefficients must be finite"),
        (lambda lines: [lines[0], "this is not the column header"] + lines[2:],
         "line 2 must be the column header 'j1,j2,value', got 'this is not the column header'"),
        (lambda lines: lines[:1] + lines[2:],
         "line 2 must be the column header 'j1,j2,value', got '0,0,"),
    ], ids=["row-index", "row-value", "header-not-object", "orders-str", "orders-int",
            "orders-float", "orders-negative", "orders-over-4300-digits", "basis-int", "rows-swapped",
            "row-duplicated", "index-out-of-range", "index-zero-padded", "row-extra",
            "row-missing", "value-nan", "value-inf", "orders-length", "weight-nan",
            "column-header-wrong", "column-header-missing"])
    def test_malformed_table_named(self, config_path, tmp_path, capsys, edit, named):
        table = tmp_path / "c.csv"
        assert run_cli(["coeffs", "--config", config_path, "--orders", "1,1",
                        "--out", str(table)]) == 0
        lines = edit(table.read_text().splitlines())
        table.write_text("\n".join(lines) + "\n")
        assert run_cli(["approximate", "--table", str(table), "--seed", "7"]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("orders, paths, steps, what", [
        ("0,0", 100, 2**16, "increments"),
        ("16,16", 100, 4096, "basis values"),
        ("0,0", 10**12, 4096, "paths"),
    ], ids=["steps", "grid", "paths"])
    def test_simulation_over_cap_rejected(self, config_path, tmp_path, capsys, monkeypatch,
                                          orders, paths, steps, what):
        # 2**16 entries: one 8-path chunk at m = 2, N = 4096 fits, while one
        # path of 2**16 steps, a grid of 4096 steps by 17 basis rows, or a
        # sample of 10**12 differences does not
        monkeypatch.setattr(errors, "MAX_ENTRIES", 2**16)
        out = tmp_path / "r.json"
        assert run_cli(["validate", "--config", config_path, "--orders", orders,
                        "--paths", str(paths), "--steps", str(steps), "--seed", "1",
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert what in err and "cap 65536" in err
        assert not out.exists()

    def test_missing_subcommand(self, capsys):
        assert run_cli([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli(["approximate", "--table", "c.csv", "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err


class TestMisc:
    def test_version(self, capsys):
        assert run_cli(["--version"]) == 0
        out = capsys.readouterr().out
        assert "itofourier" in out and "format 1" in out

    def test_bases_subcommand_is_gone(self, capsys):
        assert run_cli(["bases"]) == 1
        assert "invalid choice: 'bases'" in capsys.readouterr().err

    def test_partitions_subcommand_is_gone(self, capsys):
        assert run_cli(["partitions", "--k", "5", "--r", "2"]) == 1
        assert "invalid choice: 'partitions'" in capsys.readouterr().err
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["coeffs", "approximate", "validate"]

    def test_parser_is_built_once_and_keeps_no_parsed_state(self, config_path, tmp_path,
                                                              capsys):
        assert cli._build_parser() is cli._build_parser()
        table, out = tmp_path / "c.csv", tmp_path / "v.json"
        assert run_cli(["coeffs", "--config", config_path, "--orders", "1,1",
                        "--out", str(table)]) == 0
        assert run_cli(["approximate", "--table", str(table), "--seed", "3",
                        "--out", str(out)]) == 0
        # the next calls do not see the orders, seed or out of the calls before
        assert run_cli(["approximate", "--table", str(table)]) == 1
        assert "config.seed: required" in capsys.readouterr().err
        assert run_cli(["coeffs", "--config", config_path, "--out", str(table)]) == 1
        assert "config.orders: required" in capsys.readouterr().err

    def test_identical_argv_identical_output(self, config_path, tmp_path):
        argv = ["coeffs", "--config", config_path, "--orders", "2,2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
