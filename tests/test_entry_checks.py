"""The oracle and the torsion and metric checks read the m-bracket entries.

Their tensors and reports equal, bit for bit, the dense transposed-table
formulas they replace; they allocate no more dense dim^3 arrays than the
residual needs; and no stage of the CLI reads the dense bracket table.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

import flagconn.cli
from flagconn import (
    MetricSpec,
    assemble_tensor,
    build_metric,
    check_metric_compat,
    check_oracle_equivalence,
    check_torsion,
    m_bracket_table,
    u_oracle,
)
from flagconn.chevalley import _scatter, m_bracket_entries
from flagconn.connection import _entries
from flagconn.oracle import DEFAULT_TOLERANCE, _oracle_entries, _residual_report
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
    pl = pipeline(family, rank)
    for spec in _metrics(pl.rs):
        gram = build_metric(pl.rs, pl.killing, spec)
        tensor = assemble_tensor(pl.sc, pl.mb, spec)
        i, j, k, _ = m_bracket_entries(pl.sc, pl.mb)
        assert np.array_equal(_scatter(pl.mb, i, j, k, _oracle_entries(pl.sc, gram)),
                              _dense_oracle_tensor(m_bracket_table(pl.sc, pl.mb), gram.diagonal))
        reports = [check_oracle_equivalence(pl.rs, pl.sc, spec),
                   check_torsion(tensor, pl.sc),
                   check_metric_compat(tensor, gram)]
        expected = _dense_reports(pl, spec, tensor, gram)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in expected]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checks_allocate_few_dense_arrays_at_a10():
    pl = pipeline("A", 10)
    spec = list(_metrics(pl.rs))[1]
    gram = build_metric(pl.rs, pl.killing, spec)
    tensor = assemble_tensor(pl.sc, pl.mb, spec)  # warms the bracket and Γ entry caches
    dense = pl.mb.dim ** 3 * 8
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=pl.mb.dim), rng.normal(size=pl.mb.dim)
    assert _peak_bytes(check_oracle_equivalence, pl.rs, pl.sc, spec) < 0.1 * dense
    assert _peak_bytes(check_torsion, tensor, pl.sc) < 1.5 * dense
    assert _peak_bytes(u_oracle, pl.rs, pl.sc, gram, x, y) < 0.1 * dense


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
