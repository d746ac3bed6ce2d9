"""CLI configuration, serialization, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagconn.cli
from flagconn import build_metric, build_root_system, chevalley_constants, killing_gram
from flagconn.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    JobConfig,
    main,
    metric_spec_from_config,
    parse_config,
    read_tensor,
    run_job,
)
from flagconn.metric import MetricSpec
from flagconn.oracle import check_metric_compat, check_torsion


def run_cli(tmp_path, *args):
    out = tmp_path / "out.json"
    argv = list(args) + ["--output", str(out)]
    return main(argv), out


def test_normal_metric_job_passes_all_checks(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "--family", "A", "--rank", "2", "--coeffs", "normal", "--checks", "all"
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    names = [c["check_name"] for c in payload["checks"]]
    assert names == [
        "oracle-equivalence",
        "torsion",
        "metric-compatibility",
        "lemma2-uniqueness",
        "su-bracket-tables",
        "su-killing-form",
        "su-u-term",
    ]
    assert all(c["passed"] for c in payload["checks"])
    assert payload["meta"]["family"] == "A" and payload["meta"]["rank"] == 2
    assert len(payload["basis"]) == 6
    # normal metric: the symmetric term vanishes, so the tensor is half the
    # bracket table and in particular every stored entry is +-1/2 or +-1
    values = {t["value"] for t in payload["tensor"]}
    assert values <= {0.5, -0.5, 1.0, -1.0, 2.0, -2.0}


def test_explicit_coefficients_job(tmp_path):
    coeffs = [
        {"root": [0, 1], "c": 1.0},
        {"root": [1, 0], "c": 2.0},
        {"root": [1, 1], "c": 3.0},
    ]
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(json.dumps(coeffs))
    code, out = run_cli(
        tmp_path, "--family", "A", "--rank", "2", "--coeffs", str(cpath),
        "--checks", "oracle,torsion,metric",
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    stored = {tuple(e["root"]): e["c"] for e in payload["meta"]["coefficients"]}
    assert stored == {(0, 1): 1.0, (1, 0): 2.0, (1, 1): 3.0}


def test_missing_coefficient_is_a_config_error(tmp_path, capsys):
    coeffs = [{"root": [0, 1], "c": 1.0}, {"root": [1, 0], "c": 2.0}]
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(json.dumps(coeffs))
    code, _ = run_cli(
        tmp_path, "--family", "A", "--rank", "2", "--coeffs", str(cpath), "--checks", "oracle"
    )
    assert code == EXIT_CONFIG_ERROR
    assert "(1, 1)" in capsys.readouterr().err


def test_infinite_coefficient_is_a_config_error(tmp_path, capsys):
    coeffs = [
        {"root": [0, 1], "c": 1.0},
        {"root": [1, 0], "c": float("inf")},
        {"root": [1, 1], "c": 3.0},
    ]
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(json.dumps(coeffs))
    assert "Infinity" in cpath.read_text()
    code, out = run_cli(
        tmp_path, "--family", "A", "--rank", "2", "--coeffs", str(cpath), "--checks", "oracle"
    )
    assert code == EXIT_CONFIG_ERROR
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_tolerance_is_a_config_error(tmp_path, capsys):
    args = ["--family", "A", "--rank", "2", "--coeffs", "normal", "--checks", "all"]
    code, out = run_cli(tmp_path, *args, "--tolerance", "inf")
    assert code == EXIT_CONFIG_ERROR
    assert "finite" in capsys.readouterr().err
    assert not out.exists()

    cpath = tmp_path / "job.json"
    cpath.write_text(json.dumps({"tolerance": float("inf")}))
    assert "Infinity" in cpath.read_text()
    code, out = run_cli(tmp_path, *args, "--config", str(cpath))
    assert code == EXIT_CONFIG_ERROR
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_bad_family_rank_and_checks(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "--family", "B", "--rank", "1")
    assert code == EXIT_CONFIG_ERROR
    code, _ = run_cli(tmp_path, "--family", "A", "--rank", "2", "--checks", "bogus")
    assert code == EXIT_CONFIG_ERROR
    code, _ = run_cli(tmp_path, "--family", "B", "--rank", "2", "--checks", "su-crosscheck")
    assert code == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("fmt,config", [
    ("json", None),
    ("csv", None),
    ("json", {"rank": "two"}),
    ("json", {"tolerance": "tight"}),
    ("json", {"checks": 5}),
    ("json", [1, 2]),
    ("json", {"output": True}),
    ("json", {"output": 3}),
    ("json", {"rank": 2.7}),
    ("json", {"rank": True}),
    ("json", {"rank": float("inf")}),
    ("json", {"seed": 1.5}),
    ("json", {"tolerance": True}),
    ("json", {"coefficients": [{"root": [0, 1], "c": True}, {"root": [1, 0], "c": 2},
                               {"root": [1, 1], "c": 3}]}),
    ("json", {"coefficients": [{"root": [0, 1], "c": 10 ** 400}, {"root": [1, 0], "c": 2},
                               {"root": [1, 1], "c": 3}]}),
    ("json", {"coefficients": [{"root": [0, 1], "c": 1}, {"root": [1.5, 0], "c": 2},
                               {"root": [1, 1], "c": 3}]}),
], ids=["json-unwritable", "csv-unwritable", "rank", "tolerance", "checks", "top-level-list",
        "output-bool", "output-int", "rank-fraction", "rank-bool", "rank-inf", "seed-fraction",
        "tolerance-bool", "c-bool", "c-too-large", "root-fraction"])
def test_bad_outside_input_is_a_config_error(tmp_path, capsys, fmt, config):
    args = ["--family", "A", "--format", fmt]
    if config is None:  # the output directory does not exist
        out = tmp_path / "missing" / f"out.{fmt}"
    else:
        out = tmp_path / f"out.{fmt}"
        cpath = tmp_path / "job.json"
        cpath.write_text(json.dumps(config))
        args += ["--config", str(cpath)]
    if config is None or "rank" not in config:
        args += ["--rank", "2"]
    if not (isinstance(config, dict) and "output" in config):
        args += ["--output", str(out)]
    code = main(args)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob("*") if p.name != "job.json"] == []


def test_failing_check_yields_status_one(tmp_path):
    # an impossible tolerance forces the rounding residual above threshold
    coeffs = [
        {"root": [0, 1], "c": 1.1},
        {"root": [1, 0], "c": 2.3},
        {"root": [1, 1], "c": 3.7},
        {"root": [1, 2], "c": 0.9},
    ]
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(json.dumps(coeffs))
    code, out = run_cli(
        tmp_path, "--family", "B", "--rank", "2", "--coeffs", str(cpath),
        "--checks", "metric", "--tolerance", "1e-300",
    )
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out.read_text())
    assert any(not c["passed"] for c in payload["checks"])


def test_deterministic_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["--family", "A", "--rank", "2", "--coeffs", "normal", "--checks", "oracle"]
    assert main(base + ["--output", str(a)]) == EXIT_OK
    assert main(base + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_json_round_trip_reproduces_check_results(tmp_path):
    coeffs = [
        {"root": [0, 1], "c": 1.5},
        {"root": [1, 0], "c": 0.75},
        {"root": [1, 1], "c": 2.25},
    ]
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(json.dumps(coeffs))
    code, out = run_cli(
        tmp_path, "--family", "A", "--rank", "2", "--coeffs", str(cpath),
        "--checks", "torsion,metric",
    )
    assert code == EXIT_OK
    tensor, payload = read_tensor(str(out))

    rs = build_root_system("A", 2)
    sc = chevalley_constants(rs)
    spec = MetricSpec({tuple(e["root"]): e["c"] for e in payload["meta"]["coefficients"]})
    gram = build_metric(rs, killing_gram(rs, sc), spec)
    torsion = check_torsion(tensor, sc, payload["meta"]["tolerance"])
    compat = check_metric_compat(tensor, gram, payload["meta"]["tolerance"])
    stored = {c["check_name"]: c["passed"] for c in payload["checks"]}
    assert torsion.passed == stored["torsion"]
    assert compat.passed == stored["metric-compatibility"]


def test_csv_output_with_sidecar(tmp_path):
    out = tmp_path / "tensor.csv"
    code = main([
        "--family", "A", "--rank", "2", "--coeffs", "normal", "--checks", "torsion",
        "--format", "csv", "--output", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "i,j,k,value"
    assert len(lines) > 1
    sidecar = json.loads((tmp_path / "tensor.csv.checks.json").read_text())
    assert sidecar["checks"][0]["check_name"] == "torsion"
    assert "tensor" not in sidecar


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "family": "A",
        "rank": 2,
        "coefficients": "normal",
        "checks": ["torsion"],
        "tolerance": 1e-6,
        "output": str(tmp_path / "from_config.json"),
    }
    cpath = tmp_path / "job.json"
    cpath.write_text(json.dumps(cfg))

    config = parse_config(["--config", str(cpath)])
    assert config.family == "A" and config.rank == 2
    assert config.tolerance == 1e-6
    assert config.checks == ("torsion",)

    config = parse_config(["--config", str(cpath), "--tolerance", "1e-3", "--rank", "3"])
    assert config.tolerance == 1e-3
    assert config.rank == 3


def test_run_job_api_matches_main(tmp_path):
    out = tmp_path / "direct.json"
    config = JobConfig(
        family="A", rank=2, coefficients="normal", checks=("torsion",),
        output_path=str(out),
    )
    assert run_job(config) == EXIT_OK
    assert out.exists()


def test_metric_spec_from_config_rejects_bad_shapes(tmp_path):
    rs = build_root_system("A", 2)
    from flagconn import ConfigurationError

    with pytest.raises(ConfigurationError):
        metric_spec_from_config(rs, "sideways")
    with pytest.raises(ConfigurationError):
        metric_spec_from_config(rs, [{"root": [9, 9], "c": 1.0}])
    with pytest.raises(ConfigurationError):
        metric_spec_from_config(rs, [{"root": [0, 1], "c": 1.0}, {"root": [0, 1], "c": 2.0}])
    with pytest.raises(ConfigurationError):
        metric_spec_from_config(rs, [{"c": 1.0}])


def test_one_job_builds_each_table_once(tmp_path):
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "flagconn":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    code, _ = run_cli(tmp_path, "--family", "A", "--rank", "4", "--checks", "all")
    assert code == EXIT_OK
    for cached in (flagconn.rootsys._root_system, flagconn.chevalley.chevalley_constants,
                   flagconn.chevalley._adjoint, flagconn.chevalley.m_bracket_entries,
                   flagconn.connection._gamma_entries):
        assert cached.cache_info().misses == 1, cached.__name__


def test_numpy_is_the_only_runtime_dependency():
    src = str(Path(flagconn.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def top_level_modules(*imports):
        code = "import sys; " + "".join(f"import {m}; " for m in imports) + (
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.split())

    # site .pth files may load packages into a bare interpreter too
    added = top_level_modules("flagconn.cli") - top_level_modules()
    assert added - set(sys.stdlib_module_names) == {"numpy", "flagconn"}
