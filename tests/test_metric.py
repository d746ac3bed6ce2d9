"""Invariant metric Gram matrices and inner products."""

import sys
from fractions import Fraction

import numpy as np
import pytest

import flagconn.metric
from flagconn import (
    ConfigurationError,
    DimensionError,
    MetricSpec,
    assemble_tensor,
    build_metric,
    build_root_system,
    check_metric_compat,
    check_oracle_equivalence,
    check_torsion,
    inner,
    nabla,
)
from flagconn.cli import JobConfig, run_job
from conftest import RANK_LE_4, pipeline, random_metric, random_mvector


def test_normal_metric_is_minus_killing(a2):
    gram = build_metric(a2.rs, a2.killing, MetricSpec.normal(a2.rs))
    for k, (alpha, kind) in enumerate(a2.mb.labels):
        e = a2.mb.u_vec(alpha) if kind == "U" else a2.mb.v_vec(alpha)
        assert gram.diagonal[k] == -a2.killing.value(e, e)


def test_gram_entries_scale_with_coefficients(a2):
    base = build_metric(a2.rs, a2.killing, MetricSpec.normal(a2.rs))
    coeffs = {alpha: 1.0 for alpha in a2.rs.positive_roots}
    coeffs[(1, 0)] = 7.0
    scaled = build_metric(a2.rs, a2.killing, MetricSpec(coeffs))
    for k, (alpha, _) in enumerate(a2.mb.labels):
        factor = 7.0 if alpha == (1, 0) else 1.0
        assert scaled.diagonal[k] == factor * base.diagonal[k]


def test_uv_block_orthogonality(a2):
    gram = build_metric(a2.rs, a2.killing, MetricSpec.from_values(a2.rs, [1.0, 2.0, 3.0]))
    n = a2.mb.dim
    for j in range(n):
        for k in range(n):
            val = inner(gram, a2.mb.basis_vector(j), a2.mb.basis_vector(k))
            if j == k:
                assert val == gram.diagonal[k] > 0
            else:
                assert val == 0.0


def test_inner_is_positive_definite_and_cauchy_schwarz(a3):
    gram = build_metric(a3.rs, a3.killing, MetricSpec.from_values(
        a3.rs, np.linspace(0.5, 3.0, len(a3.rs.positive_roots))))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = random_mvector(a3.mb.dim, rng)
        y = random_mvector(a3.mb.dim, rng)
        gxx, gyy, gxy = inner(gram, x, x), inner(gram, y, y), inner(gram, x, y)
        assert gxx > 0
        assert gxy == pytest.approx(inner(gram, y, x))
        assert gxy * gxy <= gxx * gyy * (1 + 1e-12)


def test_missing_coefficient_names_the_root(a2):
    coeffs = {alpha: 1.0 for alpha in a2.rs.positive_roots}
    del coeffs[(1, 1)]
    with pytest.raises(ConfigurationError, match=r"\(1, 1\)"):
        build_metric(a2.rs, a2.killing, MetricSpec(coeffs))


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 3)])
def test_values_are_read_in_positive_root_order_from_any_key_order(family, rank):
    rs = pipeline(family, rank).rs
    in_order = random_metric(rs, 5)
    reference = tuple(map(in_order.coeffs.get, rs.positive_roots))
    assert in_order._values(rs) == reference
    assert MetricSpec(dict(reversed(in_order.coeffs.items())))._values(rs) == reference
    partial = dict(in_order.coeffs)
    del partial[rs.positive_roots[1]]
    assert MetricSpec(partial)._values(rs)[1] is None
    extra = {**in_order.coeffs, (9,) * rank: 1.0}  # a key that is no positive root
    assert MetricSpec(extra)._values(rs) == reference


def test_nonpositive_coefficient_rejected(a2):
    coeffs = {alpha: 1.0 for alpha in a2.rs.positive_roots}
    coeffs[(0, 1)] = 0.0
    with pytest.raises(ConfigurationError, match="positive"):
        build_metric(a2.rs, a2.killing, MetricSpec(coeffs))
    with pytest.raises(ConfigurationError):
        MetricSpec.from_values(a2.rs, [1.0, 2.0])


def test_first_bad_coefficient_is_named(a2):
    # (0, 1) precedes (1, 0) and (1, 1) in positive_roots order
    spec = MetricSpec({(0, 1): None, (1, 0): -1.0, (1, 1): "x"})
    with pytest.raises(ConfigurationError, match=r"missing metric coefficient for root \(0, 1\)"):
        spec.validate(a2.rs)
    spec = MetricSpec({(0, 1): 1.0, (1, 0): -1.0, (1, 1): "x"})
    with pytest.raises(ConfigurationError, match=r"root \(1, 0\) must be positive and finite, got -1.0"):
        spec.validate(a2.rs)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_coefficient_rejected(a2, bad):
    spec = MetricSpec.from_values(a2.rs, [1.0, bad, 3.0])
    with pytest.raises(ConfigurationError, match="finite"):
        spec.validate(a2.rs)


def test_inner_dimension_mismatch(a2):
    gram = build_metric(a2.rs, a2.killing, MetricSpec.normal(a2.rs))
    with pytest.raises(DimensionError):
        inner(gram, np.zeros(4), np.zeros(a2.mb.dim))


@pytest.mark.parametrize("family,rank", RANK_LE_4 + [("A", 6)])
def test_diagonal_equals_per_root_killing_construction(family, rank):
    pl = pipeline(family, rank)
    for spec in (MetricSpec.normal(pl.rs), random_metric(pl.rs, 7)):
        expected = np.zeros(pl.mb.dim)
        for k, alpha in enumerate(pl.rs.positive_roots):
            expected[2 * k] = expected[2 * k + 1] = spec.c(alpha) * (2.0 * pl.killing.e_pair(alpha))
        assert np.array_equal(build_metric(pl.rs, pl.killing, spec).diagonal, expected)


def test_the_gram_is_built_once_per_metric_and_read_only(a2):
    spec = MetricSpec.from_values(a2.rs, [1.0, 2.0, 3.0])
    gram = build_metric(a2.rs, a2.killing, spec)
    assert build_metric(a2.rs, a2.killing, MetricSpec(dict(spec.coeffs))) is gram
    with pytest.raises(ValueError):
        gram.diagonal[0] = 1.0
    other = build_metric(a2.rs, a2.killing, MetricSpec.from_values(a2.rs, [1.0, 2.0, 4.0]))
    assert not np.array_equal(other.diagonal, gram.diagonal)


@pytest.mark.parametrize("bad", [True, np.True_, "2.0", 2j, np.complex128(3.0), 10 ** 400],
                         ids=["bool", "numpy-bool", "string", "complex", "numpy-complex",
                              "too-large"])
def test_a_coefficient_is_a_real_number_and_no_bool(a2, bad):
    # the CLI passes each "c" as given; the library applies this rule on every route, and a
    # real too large for a float is refused, not an OverflowError
    coeffs = {alpha: 1.0 for alpha in a2.rs.positive_roots}
    coeffs[(1, 0)] = bad
    specs = [MetricSpec(coeffs), MetricSpec.from_values(a2.rs, list(coeffs.values()))]
    x = np.ones(a2.mb.dim)
    for spec in specs:
        for call in (lambda: spec.validate(a2.rs),
                     lambda: build_metric(a2.rs, a2.killing, spec),
                     lambda: nabla(a2.sc, a2.mb, spec, x, x)):
            with pytest.raises(ConfigurationError, match=r"root \(1, 0\) .* got "):
                call()
    with pytest.raises(ConfigurationError):
        build_metric(a2.rs, a2.killing, MetricSpec.normal(a2.rs, bad))


class _UnhashableReal(float):
    __hash__ = None


@pytest.mark.parametrize("slot", [0, 2])
def test_an_unhashable_real_number_is_a_configuration_error(a2, slot):
    # it passes the real-number check, so the memo's TypeError is the only sign of it
    values = [1.0, 2.0, 3.0]
    values[slot] = _UnhashableReal(values[slot])
    spec = MetricSpec.from_values(a2.rs, values)
    x = np.ones(a2.mb.dim)
    for call in (lambda: spec.validate(a2.rs),
                 lambda: build_metric(a2.rs, a2.killing, spec),
                 lambda: nabla(a2.sc, a2.mb, spec, x, x),
                 lambda: assemble_tensor(a2.sc, a2.mb, spec),
                 lambda: check_oracle_equivalence(a2.rs, a2.sc, spec)):
        with pytest.raises(ConfigurationError, match="hashable"):
            call()
    values[slot] = _UnhashableReal(-1.0)  # a value the coefficient check refuses keeps its error
    with pytest.raises(ConfigurationError, match="positive and finite"):
        build_metric(a2.rs, a2.killing, MetricSpec.from_values(a2.rs, values))


def test_real_numbers_of_any_type_are_coefficients(a2):
    values = [2, np.int64(3), Fraction(1, 2)]
    expected = build_metric(a2.rs, a2.killing, MetricSpec.from_values(a2.rs, [2.0, 3.0, 0.5]))
    for spec in (MetricSpec(dict(zip(a2.rs.positive_roots, values))),
                 MetricSpec.from_values(a2.rs, values)):
        assert np.array_equal(build_metric(a2.rs, a2.killing, spec).diagonal, expected.diagonal)


def test_one_metric_checks_its_coefficients_once(monkeypatch):
    """assemble_tensor, build_metric and the three checks on a new metric read one
    checked array: the coefficient check runs once."""
    pl = pipeline("C", 3)
    calls = []
    check = flagconn.metric._coefficients
    monkeypatch.setattr(flagconn.metric, "_coefficients",
                        lambda rs, values: calls.append(values) or check(rs, values))
    values = 10.0 ** np.random.default_rng(2027).uniform(-1, 1, len(pl.rs.positive_roots))
    spec = MetricSpec.from_values(pl.rs, values)
    tensor = assemble_tensor(pl.sc, pl.mb, spec)
    gram = build_metric(pl.rs, pl.killing, spec)
    reports = [check_oracle_equivalence(pl.rs, pl.sc, spec), check_torsion(tensor, pl.sc),
               check_metric_compat(tensor, gram)]
    assert all(r.passed for r in reports)
    assert calls == [tuple(values.tolist())]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_one_job_checks_its_coefficients_once(tmp_path, monkeypatch, family, rank):
    """A CLI job validates its metric, then builds, checks and (family A) cross-checks it
    through the same memo: the coefficient check runs once."""
    rs = build_root_system(family, rank)
    c = np.random.default_rng(2027).uniform(0.5, 5.0, len(rs.positive_roots)).tolist()
    calls = []
    check = flagconn.metric._coefficients
    monkeypatch.setattr(flagconn.metric, "_coefficients",
                        lambda rs, values: calls.append(values) or check(rs, values))
    flagconn.metric._checked.cache_clear()
    coefficients = [{"root": list(a), "c": v} for a, v in zip(rs.positive_roots, c)]
    config = JobConfig(family=family, rank=rank, coefficients=coefficients, checks="all",
                       output_path=str(tmp_path / "doc.json"))
    assert run_job(config) == 0
    assert calls == [tuple(c)]


def test_per_metric_memos_hold_one_metric():
    """Every memo of the package is per system (unbounded, keyed on system objects) or per
    metric (one slot, typed). A larger per-metric memo would turn a repeated metric into a
    cache hit instead of work."""
    memos = {id(fn): fn for name, module in sys.modules.items()
             if name.split(".")[0] == "flagconn" for fn in vars(module).values()
             if callable(getattr(fn, "cache_parameters", None))}.values()
    per_metric = {fn for fn in memos if fn.cache_parameters()["maxsize"] is not None}
    assert per_metric == {flagconn.metric._checked, flagconn.metric._gram,
                          flagconn.connection._gamma_entries}
    for fn in per_metric:
        assert fn.cache_parameters() == {"maxsize": 1, "typed": True}, fn.__name__
