"""The su(n+1) matrix model and its agreement with the abstract pipeline."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from flagconn import (
    ConfigurationError,
    DomainError,
    EpsRoot,
    MetricSpec,
    build_alignment,
    check_su_crosscheck,
    eps_to_simple,
    simple_to_eps,
    su3_coefficients,
    su_killing,
    su_m_basis,
    u_su3,
    u_sun,
)
from flagconn.rootsys import add_roots, negate
from flagconn.su_realization import positive_eps_roots, su_from_coords, su_to_coords
from conftest import pipeline, random_metric, random_mvector


def test_basis_sizes():
    assert len(su_m_basis(1)) == 2
    assert len(su_m_basis(2)) == 6
    assert len(su_m_basis(3)) == 12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_matrices_are_antihermitian_traceless(n):
    for m in su_m_basis(n):
        assert np.allclose(m + m.conj().T, 0.0)
        assert m.trace() == 0


def test_commutator_example():
    e12_m_e21 = np.zeros((3, 3), complex)
    e12_m_e21[0, 1], e12_m_e21[1, 0] = 1, -1
    e23_m_e32 = np.zeros((3, 3), complex)
    e23_m_e32[1, 2], e23_m_e32[2, 1] = 1, -1
    comm = e12_m_e21 @ e23_m_e32 - e23_m_e32 @ e12_m_e21
    e13_m_e31 = np.zeros((3, 3), complex)
    e13_m_e31[0, 2], e13_m_e31[2, 0] = 1, -1
    assert np.allclose(comm, e13_m_e31) or np.allclose(comm, -e13_m_e31)


def test_eps_simple_round_trip():
    assert eps_to_simple(2, EpsRoot(1, 2)) == (1, 0)
    assert eps_to_simple(2, EpsRoot(1, 3)) == (1, 1)
    assert eps_to_simple(2, EpsRoot(3, 1)) == (-1, -1)
    assert simple_to_eps(2, (1, 1)) == EpsRoot(1, 3)
    for n in (2, 3):
        rs = pipeline("A", n).rs
        for root in rs.all_roots:
            assert eps_to_simple(n, simple_to_eps(n, root)) == root


def test_eps_invalid_indices():
    with pytest.raises(DomainError):
        eps_to_simple(2, EpsRoot(1, 1))
    with pytest.raises(DomainError):
        eps_to_simple(2, EpsRoot(0, 2))
    with pytest.raises(DomainError):
        simple_to_eps(2, (1, -1))


def test_eps_order_compatibility():
    # eps_2 - eps_3 < eps_1 - eps_2 because the first index is larger
    rs = pipeline("A", 2).rs
    a = eps_to_simple(2, EpsRoot(2, 3))
    b = eps_to_simple(2, EpsRoot(1, 2))
    assert a < b
    for n in (2, 3):
        rs = pipeline("A", n).rs
        ordered = [eps_to_simple(n, r) for r in positive_eps_roots(n)]
        assert tuple(ordered) == rs.positive_roots


def test_coordinate_round_trip():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        x = rng.normal(size=(4, n * (n + 1)))
        assert su_from_coords(n, x).shape == (4, n + 1, n + 1)
        assert np.allclose(su_to_coords(n, su_from_coords(n, x)), x)


@pytest.mark.parametrize("n", [2, 3])
def test_alignment_brackets_and_killing(n):
    pl = pipeline("A", n)
    spec = random_metric(pl.rs, 5)
    reports = {r.check_name: r for r in check_su_crosscheck(pl.rs, pl.sc, spec)}
    assert reports["su-bracket-tables"].passed
    assert reports["su-bracket-tables"].max_residual <= 1e-12
    assert reports["su-killing-form"].passed
    assert reports["su-u-term"].passed


def test_killing_convention_on_a2(a2):
    # ad-trace form equals 2(n+1) tr(XY) with n + 1 = 3
    al = build_alignment(2)
    elems = [a2.mb.u_vec(a) if k == "U" else a2.mb.v_vec(a) for a, k in a2.mb.labels]
    for x in elems:
        for y in elems:
            assert a2.killing.value(x, y) == su_killing(2, al.to_matrix(x), al.to_matrix(y))


def test_crosscheck_requires_family_a(b2):
    with pytest.raises(ConfigurationError):
        check_su_crosscheck(b2.rs, b2.sc, random_metric(b2.rs, 7))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_crosscheck_rejects_nonfinite_coefficient(a3, bad):
    coeffs = dict(random_metric(a3.rs, 7).coeffs)
    coeffs[a3.rs.positive_roots[2]] = bad
    with pytest.raises(ConfigurationError):
        check_su_crosscheck(a3.rs, a3.sc, MetricSpec(coeffs))


def test_su_u_term_negative_control(a3, monkeypatch):
    import flagconn.su_realization

    spec = random_metric(a3.rs, 89)
    closed_form = flagconn.su_realization._u_tensor

    def perturbed(entry, value):
        def u_tensor(*args):
            out = closed_form(*args)
            out[entry] += value
            return out
        return u_tensor

    def su_u_term():
        reports = check_su_crosscheck(a3.rs, a3.sc, spec)
        return {r.check_name: r for r in reports}["su-u-term"]

    monkeypatch.setattr(flagconn.su_realization, "_u_tensor", perturbed((3, 7, 10), 1e-3))
    report = su_u_term()
    assert not report.passed
    assert report.witness == (3, 7)
    assert report.max_residual == pytest.approx(1e-3, rel=1e-6)

    monkeypatch.setattr(flagconn.su_realization, "_u_tensor", perturbed((3, 7, 10), np.nan))
    report = su_u_term()
    assert not report.passed
    assert report.witness == (3, 7)


def _su_report(pl, spec, name):
    return {r.check_name: r for r in check_su_crosscheck(pl.rs, pl.sc, spec)}[name]


def test_su_bracket_tables_negative_control(a3, monkeypatch):
    import flagconn.su_realization

    a, b = a3.rs.simple_roots[:2]
    index = a3.killing.index
    x, o, y = index[("E", a)], index[("E", add_roots(a, b))], index[("E", b)]
    adjoint = flagconn.su_realization._adjoint

    def perturbed(rs, sc):
        labels, idx, entries = adjoint(rs, sc)
        entries = entries.copy()  # the cached table is read-only
        at_slot = (entries[0] == x) & (entries[1] == o) & (entries[2] == y)
        assert at_slot.sum() == 1
        entries[3, at_slot] += 1
        return labels, idx, entries

    monkeypatch.setattr(flagconn.su_realization, "_adjoint", perturbed)
    report = _su_report(a3, random_metric(a3.rs, 89), "su-bracket-tables")
    assert not report.passed
    assert report.max_residual == 1.0
    assert report.witness == (x, y)


@pytest.mark.parametrize("delta", [1.0, np.nan])
def test_su_killing_form_negative_control(a3, monkeypatch, delta):
    import flagconn.su_realization

    alpha = a3.rs.positive_roots[2]
    x, y = a3.killing.index[("E", alpha)], a3.killing.index[("E", negate(alpha))]
    gram = a3.killing.gram.astype(float)
    gram[x, y] += delta
    perturbed = dataclasses.replace(a3.killing, gram=gram)
    monkeypatch.setattr(flagconn.su_realization, "killing_gram", lambda rs, sc: perturbed)
    report = _su_report(a3, random_metric(a3.rs, 89), "su-killing-form")
    assert not report.passed
    assert report.witness == (x, y)


def test_u_sun_all_pairs_memory_stays_below_one_index_triple_array():
    n = 6
    al = build_alignment(n)
    coeffs = {tuple(r): 1.0 + k for k, r in enumerate(positive_eps_roots(n))}
    e = np.diag(al.coord_signs)
    triple_array_bytes = al.mb.dim ** 2 * (n + 1) ** 3 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        u_sun(n, coeffs, e[:, None, :], e[None, :, :])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < triple_array_bytes


def test_u_sun_vanishes_for_equal_coefficients():
    coeffs = {tuple(r): 2.0 for r in positive_eps_roots(2)}
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=6), rng.normal(size=6)
    assert np.all(u_sun(2, coeffs, x, y) == 0.0)


def test_u_sun_rejects_small_n_and_bad_coefficients():
    with pytest.raises(DomainError):
        u_sun(1, {(1, 2): 1.0}, np.zeros(2), np.zeros(2))
    with pytest.raises(ConfigurationError):
        u_sun(2, {(1, 2): 1.0, (1, 3): 1.0}, np.zeros(6), np.zeros(6))
    with pytest.raises(ConfigurationError):
        u_sun(2, {(1, 2): 1.0, (1, 3): -1.0, (2, 3): 1.0}, np.zeros(6), np.zeros(6))
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            u_sun(2, {(1, 2): 1.0, (1, 3): bad, (2, 3): 2.0}, np.zeros(6), np.zeros(6))


@pytest.mark.parametrize("n", [2, 3])
def test_u_sun_batched_equals_pairwise(n):
    rng = np.random.default_rng(29)
    coeffs = {tuple(r): c for r, c in
              zip(positive_eps_roots(n), rng.uniform(0.5, 5.0, n * (n + 1) // 2))}
    xs = rng.normal(size=(3, n * (n + 1)))
    ys = rng.normal(size=(4, n * (n + 1)))
    batched = u_sun(n, coeffs, xs[:, None], ys[None, :])
    assert batched.shape == (3, 4, n * (n + 1))
    for a in range(3):
        for b in range(4):
            assert np.array_equal(batched[a, b], u_sun(n, coeffs, xs[a], ys[b]))


@pytest.mark.parametrize("n", [2, 3])
def test_u_sun_matches_abstract_routes(n):
    from flagconn import build_metric, u_bilinear, u_oracle

    pl = pipeline("A", n)
    spec = random_metric(pl.rs, 13)
    gram = build_metric(pl.rs, pl.killing, spec)
    al = build_alignment(n)
    coeffs = {simple_to_eps(n, a): spec.c(a) for a in pl.rs.positive_roots}
    rng = np.random.default_rng(17)
    for _ in range(4):
        x = random_mvector(pl.mb.dim, rng)
        y = random_mvector(pl.mb.dim, rng)
        via_matrix = u_sun(n, coeffs, al.transport(x), al.transport(y))
        assert np.allclose(via_matrix, al.transport(u_bilinear(pl.sc, pl.mb, spec, x, y)),
                           atol=1e-9)
        assert np.allclose(via_matrix, al.transport(u_oracle(pl.rs, pl.sc, gram, x, y)),
                           atol=1e-9)


def test_su3_coefficients_frozen_values():
    assert su3_coefficients(1.0, 2.0, 3.0) == (0.5, 0.5, pytest.approx(1.0 / 6.0))
    assert su3_coefficients(1.0, 1.0, 1.0) == (0.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        su3_coefficients(1.0, -2.0, 3.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            su3_coefficients(1.0, bad, 2.0)


def test_u_su3_vanishes_for_equal_coefficients():
    rng = np.random.default_rng(19)
    x, y = rng.normal(size=6), rng.normal(size=6)
    assert np.allclose(u_su3(1.0, 1.0, 1.0, x, y), 0.0, atol=1e-15)


def test_u_su3_equals_u_sun():
    rng = np.random.default_rng(23)
    c1, c2, c3 = 1.3, 0.7, 2.9
    coeffs = {(1, 2): c1, (1, 3): c2, (2, 3): c3}
    for _ in range(6):
        x, y = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(
            u_su3(c1, c2, c3, x, y), u_sun(2, coeffs, x, y), atol=1e-14
        )
