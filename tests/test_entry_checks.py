"""The oracle and the torsion and metric checks read the m-bracket entries.

Their tensors and reports equal, bit for bit, the dense transposed-table
formulas they replace, also on tensors built from a dense array; they and the
CLI job allocate a small share of one dense dim^3 array; and no stage of the
CLI reads the dense bracket table.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flagconn.cli
from flagconn import (
    MetricSpec,
    assemble_tensor,
    build_metric,
    build_root_system,
    chevalley_constants,
    check_metric_compat,
    check_oracle_equivalence,
    check_su_crosscheck,
    check_torsion,
    killing_gram,
    m_bracket_table,
    u_oracle,
)
from flagconn.chevalley import _scatter, m_bracket_entries
from flagconn.cli import JobConfig, read_tensor
from flagconn.connection import _entries
from flagconn.oracle import DEFAULT_TOLERANCE, _oracle_entries, _residual_report, _transposed
from conftest import RANK_LE_4, pipeline


def _metrics(rs):
    """The normal metric and three log-uniform metrics over 1e-3..1e3."""
    rng = np.random.default_rng(len(rs.positive_roots))
    yield MetricSpec.normal(rs)
    for _ in range(3):
        yield MetricSpec.from_values(rs, 10.0 ** rng.uniform(-3, 3, len(rs.positive_roots)))


def _dense_oracle_tensor(table, d):
    """(T[k, j, i] d_i + T[k, i, j] d_j) / (2 d_k) from two transposed copies of the table."""
    u = table.transpose(2, 1, 0) * d[:, None, None]
    u += table.transpose(1, 2, 0) * d[None, :, None]
    u /= 2.0 * d
    return u


def _dense_reports(pl, spec, tensor, gram):
    table = m_bracket_table(pl.sc, pl.mb)
    i, j, k, u, _ = _entries(pl.sc, pl.mb, spec)
    oracle = np.abs(_scatter(pl.mb, i, j, k, u) - _dense_oracle_tensor(table, gram.diagonal))
    torsion = np.abs(tensor.gamma - tensor.gamma.transpose(1, 0, 2) - table)
    weighted = tensor.gamma * gram.diagonal[None, None, :]
    metric = np.abs(weighted + weighted.transpose(0, 2, 1))
    return [_residual_report(name, res, DEFAULT_TOLERANCE) for name, res in (
        ("oracle-equivalence", oracle), ("torsion", torsion), ("metric-compatibility", metric))]


@pytest.mark.parametrize("family,rank", RANK_LE_4 + [("A", 6)])
def test_entry_checks_equal_dense_table_formulas(family, rank):
    """Γ, u, the Gram diagonal and the oracle's entries equal, bit for bit, the formulas
    written straight from the coefficients, the bracket entries and the Killing form, with
    nothing cached per system; the reports equal those formulas' and the dense ones'."""
    pl = pipeline(family, rank)
    i, j, k, t = m_bracket_entries(pl.sc, pl.mb)
    kji, kij, ji, ik = _transposed(pl.sc, pl.mb)
    npos = len(pl.rs.positive_roots)
    for spec in _metrics(pl.rs):
        values = np.array([spec.c(a) for a in pl.rs.positive_roots], dtype=float)
        c = np.repeat(values, 2)
        u = (c[i] - c[j]) / (2.0 * c[k]) * -t
        gamma = 0.5 * t + u
        d = np.repeat(values * 2.0 * np.diagonal(pl.killing.gram, npos)[pl.rs.rank:], 2)
        oracle = (t[kji] * d[i] + t[kij] * d[j]) / (2.0 * d[k])
        tensor, gram = assemble_tensor(pl.sc, pl.mb, spec), build_metric(pl.rs, pl.killing, spec)
        got = _entries(pl.sc, pl.mb, spec)[3:] + (gram.diagonal, _oracle_entries(pl.sc, gram))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in (u, gamma, d, oracle)]
        assert np.array_equal(_scatter(pl.mb, i, j, k, oracle),
                              _dense_oracle_tensor(m_bracket_table(pl.sc, pl.mb), d))
        weighted = gamma * d[k]
        expected = [_residual_report(name, res, DEFAULT_TOLERANCE, (i, j, k)) for name, res in (
            ("oracle-equivalence", np.abs(u - oracle)),
            ("torsion", np.abs(np.subtract(gamma, gamma[ji], dtype=float) - t)),
            ("metric-compatibility", np.abs(weighted + weighted[ik])))]
        reports = [check_oracle_equivalence(pl.rs, pl.sc, spec), check_torsion(tensor, pl.sc),
                   check_metric_compat(tensor, gram)]
        assert reports == expected == _dense_reports(pl, spec, tensor, gram)


def _dense_built(tensor, keys, variant):
    """A tensor built from a dense array through dataclasses.replace, then changed."""
    gamma = np.zeros(tensor.gamma.shape, dtype=int) if variant == "int-zero" else tensor.gamma.copy()
    bad = dataclasses.replace(tensor, gamma=gamma)
    # a slot with i > j whose (j, i, k) and (i, k, j) are off the bracket keys too
    off = next((i, j, k) for i, j, k in np.ndindex(gamma.shape) if i > j
               and not {(i, j, k), (j, i, k), (i, k, j)} & keys)
    on = max(keys)  # on the keys, after its (j, i, k) in row-major order
    if variant == "on-support":
        bad.gamma[on] += 0.1
    elif variant == "off-support":
        bad.gamma[off] = 0.25
    elif variant == "nan":
        bad.gamma[on] = np.nan
    return bad


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("C", 3), ("D", 4)])
@pytest.mark.parametrize("variant", ["as-is", "on-support", "off-support", "int-zero", "nan"])
def test_dense_built_tensors_are_checked_like_the_dense_formulas(family, rank, variant):
    pl = pipeline(family, rank)
    spec = list(_metrics(pl.rs))[1]
    gram = build_metric(pl.rs, pl.killing, spec)
    tensor = assemble_tensor(pl.sc, pl.mb, spec)
    keys = set(zip(*(a.tolist() for a in m_bracket_entries(pl.sc, pl.mb)[:3])))
    bad = _dense_built(tensor, keys, variant)
    reports = [check_torsion(bad, pl.sc), check_metric_compat(bad, gram)]
    expected = _dense_reports(pl, spec, bad, gram)[1:]
    # repr: a NaN residual equals itself there
    assert [repr(r.to_dict()) for r in reports] == [repr(r.to_dict()) for r in expected]
    assert all(r.passed for r in reports) == (variant == "as-is")


def test_a_pipeline_tensor_refuses_writes():
    pl = pipeline("A", 3)
    tensor = assemble_tensor(pl.sc, pl.mb, list(_metrics(pl.rs))[1])
    with pytest.raises(ValueError):
        tensor.gamma[0, 2, 4] += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        tensor.gamma = np.zeros_like(tensor.gamma)
    assert np.array_equal(tensor.gamma, _scatter(pl.mb, *tensor.entries))


@pytest.mark.parametrize("family,rank,vanished", [("A", 3, 32), ("C", 3, 80)])
def test_a_document_without_its_vanished_entries_reads_back_to_the_same_reports(
        family, rank, vanished, tmp_path):
    # c_a = ht(a) makes (c_i - c_j) / (2 c_k) exactly 1/2 on some keys, so gamma is 0.0 there
    rs = build_root_system(family, rank)
    coeffs = [{"root": list(a), "c": float(sum(a))} for a in rs.positive_roots]
    out = tmp_path / "height.json"
    assert flagconn.cli.run_job(JobConfig(family, rank, coeffs, ("torsion", "metric"),
                                          output_path=str(out))) == 0
    tensor, payload = read_tensor(str(out))
    sc, mb = chevalley_constants(rs), tensor.mbasis
    assert len(payload["tensor"]) == len(m_bracket_entries(sc, mb)[0]) - vanished
    spec = MetricSpec({tuple(e["root"]): e["c"] for e in coeffs})
    gram = build_metric(rs, killing_gram(rs, sc), spec)
    pipeline_tensor = assemble_tensor(sc, mb, spec)
    for check, arg in ((check_torsion, sc), (check_metric_compat, gram)):
        report = check(tensor, arg)
        assert report.passed
        assert report.to_dict() == check(pipeline_tensor, arg).to_dict()
    assert np.array_equal(tensor.gamma, pipeline_tensor.gamma)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checks_allocate_few_dense_arrays_at_a10(tmp_path):
    pl = pipeline("A", 10)
    spec, other = list(_metrics(pl.rs))[1:3]
    gram = build_metric(pl.rs, pl.killing, spec)
    tensor = assemble_tensor(pl.sc, pl.mb, spec)  # warms the bracket and Γ entry caches
    dense = pl.mb.dim ** 3 * 8
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=pl.mb.dim), rng.normal(size=pl.mb.dim)
    assert _peak_bytes(check_oracle_equivalence, pl.rs, pl.sc, spec) < 0.1 * dense
    assert _peak_bytes(check_torsion, tensor, pl.sc) < 0.1 * dense
    assert _peak_bytes(check_metric_compat, tensor, gram) < 0.1 * dense
    assert _peak_bytes(assemble_tensor, pl.sc, pl.mb, other) < 0.1 * dense  # a new metric
    assert _peak_bytes(u_oracle, pl.rs, pl.sc, gram, x, y) < 0.1 * dense
    # the job's document holds its 3960 triples as dicts, about 0.08 of a dense array
    coeffs = [{"root": list(a), "c": c} for a, c in spec.coeffs.items()]
    job = JobConfig("A", 10, coeffs, ("oracle", "torsion", "metric"),
                    output_path=str(tmp_path / "a10.json"))
    assert flagconn.cli.run_job(job) == 0  # warms the encoder
    assert _peak_bytes(flagconn.cli.run_job, job) < 0.1 * dense


def test_the_su_crosscheck_allocates_little_at_a12():
    pl = pipeline("A", 12)
    spec = list(_metrics(pl.rs))[1]
    assert all(r.passed for r in check_su_crosscheck(pl.rs, pl.sc, spec))  # warms the caches
    # the dense commutator stacks peaked at 312 MB here; one (dim², n+1, n+1) complex
    # stack is 76 MB
    assert _peak_bytes(check_su_crosscheck, pl.rs, pl.sc, spec) < 20e6


def test_an_a20_job_peaks_below_300_mb(tmp_path):
    src = str(Path(flagconn.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "flagconn.cli", "--family", "A", "--rank", "20",
         "--checks", "oracle,torsion,metric", "--output", str(tmp_path / "a20.json")],
        env=env, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:
        child.kill()
        child.wait()
        raise
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    assert child.returncode == 0
    # ru_maxrss is in kilobytes on Linux; it also counts the pages this process had when it
    # spawned the child, so it bounds the child's peak from above. Dense Γ alone is 593 MB.
    assert usage.ru_maxrss / 1024 < 300


@pytest.mark.parametrize("family,rank", [("A", 3), ("C", 3)])
def test_cli_never_reads_the_dense_bracket_table(family, rank, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a pipeline stage read the dense m-bracket table")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "flagconn" and hasattr(module, "m_bracket_table"):
            monkeypatch.setattr(module, "m_bracket_table", refuse)
    rs = pipeline(family, rank).rs
    values = 10.0 ** np.random.default_rng(rank).uniform(-1, 1, len(rs.positive_roots))
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps([{"root": list(a), "c": float(c)}
                                  for a, c in zip(rs.positive_roots, values)]))
    status = flagconn.cli.main(["--family", family, "--rank", str(rank),
                                "--coeffs", str(coeffs), "--checks", "all",
                                "--output", str(tmp_path / "out.json")])
    assert status == 0
