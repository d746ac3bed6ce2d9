"""The brute-force U solver and the verification reports."""

import dataclasses
import types

import numpy as np
import pytest

from flagconn import (
    MetricSpec,
    assemble_tensor,
    build_metric,
    check_lemma2,
    check_metric_compat,
    check_oracle_equivalence,
    check_torsion,
    negate,
    u_oracle,
)
from conftest import RANK_LE_4, pipeline, random_metric, random_mvector


def test_oracle_vanishes_for_equal_coefficients(a2):
    gram = build_metric(a2.rs, a2.killing, MetricSpec.normal(a2.rs, 3.0))
    rng = np.random.default_rng(71)
    for _ in range(5):
        x = random_mvector(a2.mb.dim, rng)
        y = random_mvector(a2.mb.dim, rng)
        assert np.allclose(u_oracle(a2.rs, a2.sc, gram, x, y), 0.0, atol=1e-12)


def test_oracle_vanishes_on_single_block(a2):
    gram = build_metric(a2.rs, a2.killing, MetricSpec.from_values(a2.rs, [1.0, 2.0, 3.0]))
    x = a2.mb.basis_vector(0)
    assert np.allclose(u_oracle(a2.rs, a2.sc, gram, x, x), 0.0, atol=1e-15)


def test_oracle_symmetry(b2):
    gram = build_metric(b2.rs, b2.killing, random_metric(b2.rs, 73))
    rng = np.random.default_rng(79)
    for _ in range(5):
        x = random_mvector(b2.mb.dim, rng)
        y = random_mvector(b2.mb.dim, rng)
        assert np.allclose(
            u_oracle(b2.rs, b2.sc, gram, x, y),
            u_oracle(b2.rs, b2.sc, gram, y, x),
            atol=1e-12,
        )


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_oracle_equivalence_seeded(family, rank):
    pl = pipeline(family, rank)
    for seed in (0, 1, 2):
        report = check_oracle_equivalence(pl.rs, pl.sc, random_metric(pl.rs, seed))
        assert report.passed, report


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_oracle_equivalence_every_rank_le_4_system(family, rank):
    # the central claim holds on every classical system in scope, not just
    # the sweep systems exercised with many seeds elsewhere
    pl = pipeline(family, rank)
    report = check_oracle_equivalence(pl.rs, pl.sc, random_metric(pl.rs, 101))
    assert report.passed, report


@pytest.mark.parametrize("metric", ["normal", "c123"])
def test_levi_civita_axioms_a2(a2, metric):
    spec = (
        MetricSpec.normal(a2.rs)
        if metric == "normal"
        else MetricSpec.from_values(a2.rs, [1.0, 2.0, 3.0])
    )
    gram = build_metric(a2.rs, a2.killing, spec)
    tensor = assemble_tensor(a2.sc, a2.mb, spec)
    assert check_torsion(tensor, a2.sc).passed
    assert check_metric_compat(tensor, gram).passed


def test_zero_residual_has_no_witness(a3):
    # the normal metric gives exact-zero torsion and metric residuals on A3;
    # a zero residual names no entry
    spec = MetricSpec.normal(a3.rs)
    tensor = assemble_tensor(a3.sc, a3.mb, spec)
    gram = build_metric(a3.rs, a3.killing, spec)
    for report in (check_torsion(tensor, a3.sc), check_metric_compat(tensor, gram)):
        assert report.max_residual == 0.0
        assert report.witness is None


def test_perturbation_negative_control(a2):
    spec = MetricSpec.from_values(a2.rs, [1.0, 2.0, 3.0])
    gram = build_metric(a2.rs, a2.killing, spec)
    tensor = assemble_tensor(a2.sc, a2.mb, spec)
    bad = dataclasses.replace(tensor, gamma=tensor.gamma.copy())
    bad.gamma[1, 2, 3] += 0.1
    torsion = check_torsion(bad, a2.sc)
    compat = check_metric_compat(bad, gram)
    assert not (torsion.passed and compat.passed)
    failing = torsion if not torsion.passed else compat
    assert failing.witness is not None
    assert failing.max_residual > 0.05


def test_oracle_equivalence_negative_control(a3, monkeypatch):
    import flagconn.oracle

    spec = random_metric(a3.rs, 89)
    closed_form = flagconn.oracle._u_tensor

    def perturbed(entry, value):
        def u_tensor(*args):
            out = closed_form(*args)
            out[entry] += value
            return out
        return u_tensor

    monkeypatch.setattr(flagconn.oracle, "_u_tensor", perturbed((3, 7, 10), 1e-3))
    report = check_oracle_equivalence(a3.rs, a3.sc, spec)
    assert not report.passed
    assert report.witness == (3, 7, 10)
    assert report.max_residual == pytest.approx(1e-3, rel=1e-6)

    monkeypatch.setattr(flagconn.oracle, "_u_tensor", perturbed((5, 0, 2), np.nan))
    report = check_oracle_equivalence(a3.rs, a3.sc, spec)
    assert not report.passed
    assert report.witness == (5, 0, 2)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 3)])
def test_lemma2_reports(family, rank):
    report = check_lemma2(pipeline(family, rank).rs)
    assert report.passed
    assert report.max_residual == 0.0


def test_lemma2_negative_control(a3):
    # calling every vector positive makes two of the four candidates canonical
    stub = types.SimpleNamespace(all_roots=a3.rs.all_roots, is_positive=lambda v: True)
    report = check_lemma2(stub)
    assert not report.passed
    assert report.max_residual == 1.0
    a, b = report.witness
    assert a != b and a != negate(b)


def test_report_invariant_passed_iff_within_threshold(a2):
    report = check_oracle_equivalence(a2.rs, a2.sc, random_metric(a2.rs, 83))
    assert report.passed == (report.max_residual <= report.threshold)
    d = report.to_dict()
    assert set(d) == {"check_name", "max_residual", "threshold", "passed", "witness"}
