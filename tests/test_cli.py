"""CLI configuration, serialization, exit codes, determinism."""

import atexit
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flagconn.cli
from flagconn import (
    assemble_tensor,
    build_m_basis,
    build_metric,
    build_root_system,
    chevalley_constants,
    killing_gram,
)
from flagconn.cli import (
    CHECK_NAMES,
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


@pytest.mark.parametrize("content", ['"normal"', '{"coefficients": [{"root": [0, 1], "c": 1}, '
                                     '{"root": [1, 0], "c": 2}, {"root": [1, 1], "c": 3}]}',
                                     "{}", "3", "null"],
                         ids=["normal-string", "wrapped-list", "object", "number", "null"])
def test_a_coefficient_file_holds_one_json_list(tmp_path, capsys, content):
    # a file holding "normal" ran the normal metric, a wrapped list was unwrapped
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(content)
    code, out = run_cli(tmp_path, "--family", "A", "--rank", "2", "--coeffs", str(cpath))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR and not out.exists()
    assert err.startswith("error: a coefficient file must hold one JSON list")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--config", "--coeffs"])
def test_malformed_json_is_one_error_line(tmp_path, capsys, flag):
    path = tmp_path / "input.json"
    path.write_text('[{"root": [0, 1], "c": 1.0},')
    code, out = run_cli(tmp_path, "--family", "A", "--rank", "2", flag, str(path))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR and not out.exists()
    assert err.startswith("error: malformed JSON input: ") and err.count("\n") == 1


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
    ("json", {"coefficients": [{"root": [0, 1], "c": "2.0"}, {"root": [1, 0], "c": 2},
                               {"root": [1, 1], "c": 3}]}),
    ("json", {"coefficients": [{"root": "10", "c": 1}, {"root": [0, 1], "c": 2},
                               {"root": [1, 1], "c": 3}]}),
    ("json", {"checks": [["oracle"]]}),
    ("json", {"checks": [{"a": 1}]}),
    ("json", ("--family", "A", "--rank", "two")),
    ("json", ("--family", "X", "--rank", "2")),
    ("json", ("--family", "A", "--rank", "2", "--format", "xml")),
    ("json", ("--family", "A")),
    ("json", {"tolerence": 1e-300}),
    ("json", {"output_path": "elsewhere.json"}),
    ("json", ("--bogus",)),
    ("json", ("--family", "A", "--rank")),
], ids=["json-unwritable", "csv-unwritable", "rank", "tolerance", "checks", "top-level-list",
        "output-bool", "output-int", "rank-fraction", "rank-bool", "rank-inf", "seed-fraction",
        "tolerance-bool", "c-bool", "c-too-large", "root-fraction", "c-string", "root-string",
        "checks-list-in-list",
        "checks-object-in-list", "rank-flag", "family-flag", "format-flag", "no-rank-flag",
        "misspelled-key", "output-path-key", "unknown-flag", "flag-without-value"])
def test_bad_outside_input_is_a_config_error(tmp_path, capsys, fmt, config):
    out = tmp_path / f"out.{fmt}"
    if isinstance(config, tuple):  # the flags alone, no config file
        args = list(config)
    else:
        args = ["--family", "A", "--format", fmt]
        if config is None:  # the output directory does not exist
            out = tmp_path / "missing" / f"out.{fmt}"
        else:
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


@pytest.mark.parametrize("c,rows", [((1, 2, 1), 16), ((1, 2, 1 + 1e-13), 24)],
                         ids=["tied", "near-tie"])
def test_a_document_holds_every_nonzero_entry_of_gamma(tmp_path, c, rows):
    # in positive_roots order; (1, 2, 1) makes 8 of the 24 entries exactly 0.0, and
    # 1 + 1e-13 makes them about 1e-13 and nonzero
    rs = build_root_system("A", 2)
    sc = chevalley_constants(rs)
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(json.dumps([{"root": list(a), "c": v} for a, v in zip(rs.positive_roots, c)]))
    job = ["--family", "A", "--rank", "2", "--coeffs", str(cpath)]
    code, out = run_cli(tmp_path, *job)
    assert code == EXIT_OK
    tensor, payload = read_tensor(str(out))
    *index, values = assemble_tensor(sc, build_m_basis(rs), MetricSpec.from_values(rs, c)).entries
    keep = values != 0
    assert len(payload["tensor"]) == keep.sum() == rows
    assert all(np.array_equal(read, a[keep]) for read, a in zip(tensor.entries, (*index, values)))
    assert check_torsion(tensor, sc).max_residual == 0.0
    table = tmp_path / "out.csv"
    assert main(job + ["--format", "csv", "--output", str(table)]) == EXIT_OK
    assert table.read_bytes().decode().split("\r\n") == ["i,j,k,value"] + [
        f"{t['i']},{t['j']},{t['k']},{t['value']!r}" for t in payload["tensor"]] + [""]


def test_an_integer_coefficient_is_recorded_as_a_float(tmp_path):
    documents = []
    for c in (2, 2.0):
        cpath = tmp_path / "coeffs.json"
        cpath.write_text(json.dumps([{"root": [0, 1], "c": c}, {"root": [1, 0], "c": 1},
                                     {"root": [1, 1], "c": 3}]))
        code, out = run_cli(tmp_path, "--family", "A", "--rank", "2", "--coeffs", str(cpath),
                            "--checks", "all")
        assert code == EXIT_OK
        documents.append(out.read_bytes())
    meta = json.loads(documents[0])["meta"]["coefficients"]
    assert [(e["c"], type(e["c"])) for e in meta] == [(2.0, float), (1.0, float), (3.0, float)]
    assert documents[0] == documents[1]


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


@pytest.mark.parametrize("field,value", [
    ("tolerance", "1e-3"),
    ("seed", "x"),
    ("checks", ("oracle", "oracle")),
    ("checks", ("all",)),
    ("rank", 2.0),
    ("checks", "oracle"),
    ("checks", ("lemma2", "all", "torsion")),
    ("family", "b"),
], ids=["tolerance-string", "seed-string", "checks-repeated", "checks-all", "rank-float",
        "checks-string", "checks-all-among-names", "family-lower-case"])
def test_run_job_and_main_give_one_result_for_one_job(tmp_path, monkeypatch, capsys, field, value):
    job = dict({"family": "A", "rank": 2, "checks": ("torsion",)}, **{field: value})
    config_file = tmp_path / "job.json"
    config_file.write_text(json.dumps(dict(job, output="doc.json")))
    results = []
    for side, run in (("direct", lambda: run_job(JobConfig(**job, output_path="doc.json"))),
                      ("file", lambda: main(["--config", str(config_file)]))):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        code = run()
        out = tmp_path / side / "doc.json"
        results.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
    assert results[0] == results[1]
    code, streams, document = results[0]
    if code == EXIT_CONFIG_ERROR:
        assert streams.err.startswith("error: ") and streams.err.count("\n") == 1
        assert document is None
    else:
        assert code == EXIT_OK and streams.err == ""
        payload = json.loads(document)
        names = [c["check_name"] for c in payload["checks"]]
        assert len(names) == len(set(names)) > 0 and json.dumps(payload["meta"]["rank"]) == "2"


def test_help_names_the_families_checks_and_formats(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert stop.value.code == 0
    assert "A, B, C, D" in text and ",".join(CHECK_NAMES) in text and "json, csv" in text


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


def _flagconn_caches():
    """Every memoized function in the flagconn module namespaces: the rule by which the
    benchmark clears its caches for a cold set-up."""
    return list({id(value): value for name, module in list(sys.modules.items())
                 if name.split(".")[0] == "flagconn" for value in vars(module).values()
                 if callable(getattr(value, "cache_clear", None))}.values())


def test_clearing_the_discovered_caches_makes_set_up_cold():
    def build():
        rs = build_root_system("A", 3)
        sc = chevalley_constants(rs)
        return rs, sc, killing_gram(rs, sc), flagconn.chevalley.m_bracket_entries(
            sc, flagconn.build_m_basis(rs))

    before = build()
    assert all(a is b for a, b in zip(before, build()))  # memoized
    for cache in _flagconn_caches():
        cache.cache_clear()
    assert not any(a is b for a, b in zip(before, build()))


@pytest.mark.parametrize("family,rank", [("C", 3), ("A", 6)])
def test_library_set_up_builds_no_check_table(family, rank):
    """The library set-up (the build stages, the dense bracket table and a first u_bilinear
    and nabla) builds no table that only a check reads; the closed form's per-system table
    holds the bracket keys themselves and what the entries give with no search."""
    for cache in _flagconn_caches():
        cache.cache_clear()
    rs = build_root_system(family, rank)
    sc = chevalley_constants(rs)
    killing_gram(rs, sc)
    mb = build_m_basis(rs)
    flagconn.m_bracket_table(sc, mb)
    spec, x = MetricSpec.normal(rs), mb.basis_vector(0)
    flagconn.u_bilinear(sc, mb, spec, x, x)
    flagconn.nabla(sc, mb, spec, x, x)
    oracle_tables = {value for value in vars(flagconn.oracle).values()
                     if getattr(value, "__module__", None) == "flagconn.oracle"
                     and callable(getattr(value, "cache_clear", None))}
    assert {flagconn.oracle._transposed, flagconn.oracle._oracle_table} <= oracle_tables
    assert [fn.__name__ for fn in oracle_tables if fn.cache_info().currsize] == []
    i, j, k, t = flagconn.chevalley.m_bracket_entries(sc, mb)
    *keys, blocks, minus_t, half_t = flagconn.connection._closed_form_table(sc, mb)
    assert [a is b for a, b in zip(keys, (i, j, k))] == [True] * 3
    for got, want in ((blocks, np.stack((i, j, k)) // 2), (minus_t, -t), (half_t, 0.5 * t)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_importing_the_cli_builds_no_table():
    src = str(Path(flagconn.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, flagconn.cli\n"
            "for name, module in list(sys.modules.items()):\n"
            "    if name.split('.')[0] == 'flagconn':\n"
            "        for key, value in vars(module).items():\n"
            "            if callable(getattr(value, 'cache_clear', None)):\n"
            "                print(name, key, value.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert len(out) >= 11 and all(line.endswith(" 0") for line in out), out


def test_one_job_builds_each_table_once(tmp_path):
    for cache in _flagconn_caches():
        cache.cache_clear()
    code, _ = run_cli(tmp_path, "--family", "A", "--rank", "4", "--checks", "all")
    assert code == EXIT_OK
    for cached in (flagconn.rootsys._root_system, flagconn.chevalley.chevalley_constants,
                   flagconn.chevalley._adjoint, flagconn.chevalley.m_bracket_entries,
                   flagconn.connection._closed_form_table, flagconn.connection._gamma_entries,
                   flagconn.metric._block_norms, flagconn.metric._checked, flagconn.metric._gram,
                   flagconn.oracle._transposed, flagconn.oracle._oracle_table):
        assert cached.cache_info().misses == 1, cached.__name__


def test_the_tables_a_cache_shares_are_read_only(tmp_path):
    # a write through one caller would change the results of every other caller
    code, out = run_cli(tmp_path, "--family", "A", "--rank", "3", "--checks", "all")
    assert code == EXIT_OK
    rs = build_root_system("A", 3)
    sc, mb = chevalley_constants(rs), build_m_basis(rs)
    kf, values = killing_gram(rs, sc), MetricSpec.normal(rs)._values(rs)  # the job's metric
    caches = [flagconn.chevalley._adjoint, flagconn.chevalley.killing_gram,
              flagconn.chevalley.m_bracket_entries,
              flagconn.connection._closed_form_table, flagconn.connection._gamma_entries,
              flagconn.metric._checked, flagconn.metric._block_norms, flagconn.metric._gram,
              flagconn.oracle._transposed, flagconn.oracle._oracle_table,
              flagconn.su_realization.build_alignment]
    misses = [cache.cache_info().misses for cache in caches]
    tables = [flagconn.chevalley._adjoint(rs, sc)[2], kf.gram,
              *flagconn.chevalley.m_bracket_entries(sc, mb),
              *flagconn.connection._closed_form_table(sc, mb),
              *flagconn.connection._gamma_entries(sc, mb, *values),
              flagconn.metric._checked(rs, *values), flagconn.metric._block_norms(rs, kf),
              flagconn.metric._gram(rs, kf, *values).diagonal,
              flagconn.oracle._transposed(sc, mb), flagconn.oracle._oracle_table(sc, mb),
              flagconn.su_realization.build_alignment(3).coord_signs,
              rs.triples, sc.n_rows, read_tensor(str(out))[0].gamma]
    assert [cache.cache_info().misses for cache in caches] == misses  # the job's own tables
    assert [k for k, table in enumerate(tables) if table.flags.writeable] == []


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


def test_cli_imports_neither_fractions_nor_decimal():
    src = str(Path(flagconn.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def modules(*imports):
        code = "import sys; " + "".join(f"import {m}; " for m in imports) + "print(*sys.modules)"
        return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout.split())

    # numpy.random alone costs 15-22 ms of import in every CLI process, csv about 1 ms
    assert not {"fractions", "decimal", "numpy.random", "csv"} & (
        modules("flagconn.cli") - modules())


# SHA-256 of the basis, tensor and meta of each --checks all document. A change
# that keeps the results keeps these bytes; one that means to alter them records
# new digests and says why. The residuals stay out: a change may reorder the sums
# behind them, and so round them differently, without changing a result, while the
# tensor comes from elementwise IEEE arithmetic only.
CLI_DOCUMENT_DIGESTS = [
    ("A", 3, True,
     "78a8c3498d70e9c837edbd69179dc9aec6d896ddb57bd6e06f01c81c2cf10f48"),
    ("A", 4, True,
     "3ca705b667dda342f6f96befa4eb8270f4d9b115c9cba5b19876903e04c78f08"),
    ("A", 4, False,
     "a3e7695b68a60cf56b1301d4d7185b95600f51376df0a032164b0495ccc9fe1e"),
    ("B", 3, True,
     "52251d36337b0a7938f04cbf171e9763b7c8ea285c4fcbad91378b2d81e51e50"),
    ("C", 3, True,
     "5c94c8a6311be157e7965f3bbc8da578b61723856dc4fd6c46020ed02b3d5f43"),
    ("D", 4, True,
     "509dea6142270626e12527d67dd153535b5687384e45ffb0c5978281c691edd3"),
]


@pytest.mark.parametrize("job", range(len(CLI_DOCUMENT_DIGESTS)),
                         ids=["A3", "A4", "A4-normal", "B3", "C3", "D4"])
def test_cli_documents_are_byte_identical_to_the_recorded_ones(tmp_path, job):
    family, rank, drawn, digest = CLI_DOCUMENT_DIGESTS[job]
    coeffs = "normal"
    if drawn:
        roots = build_root_system(family, rank).positive_roots
        c = np.exp(np.random.default_rng(job).uniform(np.log(0.1), np.log(10.0), len(roots)))
        # rounded, so that an exp that differs in its last bit on another CPU draws the same file
        entries = [{"root": list(a), "c": v} for a, v in zip(roots, np.round(c, 9).tolist())]
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps(entries))
    code, out = run_cli(tmp_path, "--family", family, "--rank", str(rank), "--coeffs",
                        str(coeffs), "--checks", "all", "--format", "json")
    payload = json.loads(out.read_text())
    assert code == EXIT_OK and all(check["passed"] for check in payload["checks"])
    document = json.dumps({key: payload[key] for key in ("basis", "tensor", "meta")},
                          sort_keys=True)
    assert hashlib.sha256(document.encode()).hexdigest() == digest


def test_main_keeps_the_callers_gc(tmp_path):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    for _ in range(2):
        code, _ = run_cli(tmp_path, "--family", "A", "--rank", "2", "--checks", "all")
        assert code == EXIT_OK
        assert gc.get_freeze_count() == frozen and gc.isenabled() == enabled


def test_main_registers_its_exit_hook_once(tmp_path):
    code, _ = run_cli(tmp_path, "--family", "A", "--rank", "2")
    registered = atexit._ncallbacks()
    for _ in range(3):
        assert run_cli(tmp_path, "--family", "A", "--rank", "2")[0] == EXIT_OK
    assert code == EXIT_OK and atexit._ncallbacks() == registered


def test_the_report_is_json_dump_byte_for_byte(tmp_path):
    code, out = run_cli(tmp_path, "--family", "D", "--rank", "4", "--checks", "all")
    assert code == EXIT_OK  # a document of many more than 512 encoder chunks
    assert out.read_text() == json.dumps(json.loads(out.read_text()), indent=2) + "\n"


def _cli_child(cwd, *args, code="import sys; from flagconn.cli import main; sys.exit(main())"):
    """A fresh interpreter that runs one job through main and exits with its status."""
    src = str(Path(flagconn.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def _random_a4_coefficients(path):
    roots = build_root_system("A", 4).positive_roots
    c = np.random.default_rng(4).uniform(0.5, 5.0, len(roots))
    path.write_text(json.dumps([{"root": list(a), "c": v} for a, v in zip(roots, c.tolist())]))
    return str(path)


def test_a_fresh_process_job_equals_the_in_process_one(tmp_path, monkeypatch, capsys):
    coeffs = _random_a4_coefficients(tmp_path / "coeffs.json")
    argv = ["--family", "A", "--rank", "4", "--coeffs", coeffs, "--checks", "all",
            "--output", "doc.json"]
    (tmp_path / "child").mkdir()
    (tmp_path / "here").mkdir()
    child = _cli_child(tmp_path / "child", *argv)
    monkeypatch.chdir(tmp_path / "here")
    assert run_job(parse_config(argv)) == child.returncode == EXIT_OK
    assert capsys.readouterr().out.splitlines() == child.stdout.splitlines()
    assert (tmp_path / "child" / "doc.json").read_bytes() == (
        tmp_path / "here" / "doc.json").read_bytes()


def test_main_freezes_the_heap_once_at_exit(tmp_path):
    # gc.freeze is looked up when main runs, so a stand-in that prints shows each call
    code = ("import gc, sys\n"
            "gc.freeze = lambda: print('freeze')\n"
            "from flagconn.cli import main\n"
            "for _ in range(3):\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print('returned')\n")
    child = _cli_child(tmp_path, "--family", "A", "--rank", "2", "--output", "doc.json",
                       code=code)
    assert child.returncode == EXIT_OK, child.stderr
    out = child.stdout.splitlines()
    assert out[-2:] == ["returned", "freeze"] and out.count("freeze") == 1


def test_exit_codes_survive_the_exit_hook(tmp_path):
    coeffs = _random_a4_coefficients(tmp_path / "coeffs.json")
    job = ["--family", "A", "--rank", "4", "--checks", "all", "--output", "doc.json"]
    assert _cli_child(tmp_path, *job).returncode == EXIT_OK
    failed = _cli_child(tmp_path, *job, "--coeffs", coeffs, "--tolerance", "1e-300")
    assert failed.returncode == EXIT_CHECK_FAILED and "FAIL" in failed.stdout
    missing = json.loads(Path(coeffs).read_text())[1:]
    (tmp_path / "missing.json").write_text(json.dumps(missing))
    config_error = _cli_child(tmp_path, *job, "--coeffs", "missing.json")
    assert config_error.returncode == EXIT_CONFIG_ERROR
    assert config_error.stderr.startswith("error: ")
