"""The su(n+1) matrix model and its agreement with the abstract pipeline."""

import dataclasses
import tracemalloc
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest

from flagconn import (
    ConfigurationError,
    DimensionError,
    DomainError,
    EpsRoot,
    MetricSpec,
    build_alignment,
    build_root_system,
    check_su_crosscheck,
    chevalley_constants,
    eps_to_simple,
    simple_to_eps,
    su3_coefficients,
    su_killing,
    su_m_basis,
    u_su3,
    u_sun,
)
import flagconn.su_realization
from flagconn.chevalley import LieElement, build_m_basis
from flagconn.oracle import DEFAULT_TOLERANCE, _residual_report
from flagconn.rootsys import add_roots, negate
from flagconn.su_realization import (
    positive_eps_roots,
    su_from_coords,
    su_to_coords,
)
from conftest import pipeline, random_metric, random_mvector
from test_connection import COMPLEX_COORDS


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


@pytest.mark.parametrize("bad", [(1, 2, 3), (1,), "ab", "12", 12, None, (1.0, 2), (True, 2)],
                         ids=["3-tuple", "1-tuple", "string", "digit-string", "int", "none",
                              "float-index", "bool-index"])
def test_eps_to_simple_refuses_what_is_no_index_pair(bad):
    # a 3-tuple or a string raised a bare TypeError; a float index gave the zero vector
    with pytest.raises(DomainError):
        eps_to_simple(2, bad)


def test_a_wrong_coordinate_length_is_a_dimension_error():
    with pytest.raises(DimensionError):
        simple_to_eps(2, (1, 0, 0))
    with pytest.raises(DimensionError):
        su_from_coords(2, np.ones(5))
    with pytest.raises(DimensionError):
        su_from_coords(2, np.ones((3, 7)))


@pytest.mark.parametrize("shape", [(3, 3, 4), (2, 2), (3,), (4, 3)])
def test_matrices_of_another_shape_are_a_dimension_error(shape):
    # a (3, 3, 4) stack was read as three 3 x 4 matrices, a 2 x 2 one raised IndexError
    with pytest.raises(DimensionError):
        su_to_coords(2, np.zeros(shape))


@pytest.mark.parametrize("n", [0, -1, -2])
def test_the_coordinate_maps_refuse_n_below_one(n):
    for call in (lambda: su_to_coords(n, np.zeros((2, 2))), lambda: su_from_coords(n, np.zeros(2)),
                 lambda: su_m_basis(n)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_su_from_coords_writes_each_block_on_its_two_entries(n):
    # (u, v) on eps_p - eps_q, p < q: u + iv at (p, q), -u + iv at (q, p), over leading axes
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2, 3, n * (n + 1)))
    out = su_from_coords(n, x)
    assert out.shape == (2, 3, n + 1, n + 1) and not np.diagonal(out, axis1=-2, axis2=-1).any()
    for k, r in enumerate(positive_eps_roots(n)):
        u, v = x[..., 2 * k], x[..., 2 * k + 1]
        assert np.array_equal(out[..., r.i - 1, r.j - 1], u + 1j * v)
        assert np.array_equal(out[..., r.j - 1, r.i - 1], -u + 1j * v)
    basis = su_m_basis(n)
    for k, r in enumerate(positive_eps_roots(n)):
        e_ij, e_ji = _matrix_unit(n, r.i, r.j), _matrix_unit(n, r.j, r.i)
        assert np.array_equal(basis[2 * k], e_ij - e_ji)
        assert np.array_equal(basis[2 * k + 1], 1j * (e_ij + e_ji))


def test_u_sun_builds_no_dense_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("u_sun scatters the coordinates onto their entries")

    coeffs = {r: 1.0 + k for k, r in enumerate(positive_eps_roots(3))}
    x, y = np.eye(12)[[0, 5]], np.eye(12)[[7, 2]]
    want = u_sun(3, coeffs, x, y)
    monkeypatch.setattr(flagconn.su_realization, "su_m_basis", refuse)
    assert np.array_equal(u_sun(3, coeffs, x, y), want)


def test_u_sun_memory_at_a30_stays_below_two_mib():
    # the dense basis stack was (930, 31, 31) complex: a 27.8 MiB peak
    n = 30
    rng = np.random.default_rng(30)
    coeffs = {r: float(c) for r, c in zip(positive_eps_roots(n), rng.uniform(0.1, 10, 465))}
    x, y = rng.normal(size=(2, n * (n + 1)))
    u_sun(n, coeffs, x, y)  # warm-up
    tracemalloc.start()
    try:
        u_sun(n, coeffs, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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
    closed_form = flagconn.su_realization._entries
    i, j, _, u, _ = closed_form(a3.sc, a3.mb, spec)
    at = len(u) // 2  # an entry on the bracket support
    witness = (int(i[at]), int(j[at]))

    def perturbed(value):
        def entries(*args):
            *keys, u, gamma = closed_form(*args)
            u = u.copy()
            u[at] += value
            return *keys, u, gamma
        return entries

    def su_u_term():
        reports = check_su_crosscheck(a3.rs, a3.sc, spec)
        return {r.check_name: r for r in reports}["su-u-term"]

    monkeypatch.setattr(flagconn.su_realization, "_entries", perturbed(1e-3))
    report = su_u_term()
    assert not report.passed
    assert report.witness == witness
    assert report.max_residual == pytest.approx(1e-3, rel=1e-6)

    monkeypatch.setattr(flagconn.su_realization, "_entries", perturbed(np.nan))
    report = su_u_term()
    assert not report.passed
    assert report.witness == witness


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


def _perturbed_killing_report(pl, monkeypatch, x, y, delta):
    gram = pl.killing.gram.astype(float)
    gram[x, y] += delta
    perturbed = dataclasses.replace(pl.killing, gram=gram)
    monkeypatch.setattr(flagconn.su_realization, "killing_gram", lambda rs, sc: perturbed)
    return _su_report(pl, random_metric(pl.rs, 89), "su-killing-form")


@pytest.mark.parametrize("delta", [1.0, np.nan])
def test_su_killing_form_negative_control(a3, monkeypatch, delta):
    alpha = a3.rs.positive_roots[2]
    x, y = a3.killing.index[("E", alpha)], a3.killing.index[("E", negate(alpha))]
    report = _perturbed_killing_report(a3, monkeypatch, x, y, delta)
    assert not report.passed
    assert report.witness == (x, y)


@pytest.mark.parametrize("delta", [1.0, np.nan])
def test_su_killing_form_negative_control_where_the_gram_is_zero(a3, monkeypatch, delta):
    # B(H_1, E_alpha) = 0 and no trace product lands there: the key comes from the gram only
    alpha = a3.rs.positive_roots[2]
    x, y = a3.killing.index[("H", 0)], a3.killing.index[("E", alpha)]
    assert a3.killing.gram[x, y] == 0
    report = _perturbed_killing_report(a3, monkeypatch, x, y, delta)
    assert not report.passed
    assert report.witness == (x, y)
    if delta == 1.0:
        assert report.max_residual == 1.0


def test_u_sun_all_pairs_memory_stays_below_one_index_triple_array():
    n = 6
    al = build_alignment(n)
    coeffs = {tuple(r): 1.0 + k for k, r in enumerate(positive_eps_roots(n))}
    e = np.diag(al.coord_signs)
    triple_array_bytes = (n * (n + 1)) ** 2 * (n + 1) ** 3 * np.dtype(complex).itemsize
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


@pytest.mark.parametrize("bad", [True, np.True_, "2.0", 2j, None, 10 ** 400],
                         ids=["bool", "numpy-bool", "string", "complex", "none", "too-large"])
def test_u_sun_coefficients_are_real_numbers_and_no_bool(bad):
    # the rule of the pipeline's metric check, in u_sun's own check
    x = np.ones(6)
    with pytest.raises(ConfigurationError, match=r"\(1, 3\) .* got "):
        u_sun(2, {(1, 2): 2.0, (1, 3): bad, (2, 3): 3.0}, x, x)
    reals = {(1, 2): 2, (1, 3): np.int64(1), (2, 3): Fraction(3, 2)}
    assert np.array_equal(u_sun(2, reals, x, x),
                          u_sun(2, {(1, 2): 2.0, (1, 3): 1.0, (2, 3): 1.5}, x, x))


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


@pytest.mark.parametrize("bad", [True, np.True_, "2", 2j, 10 ** 400],
                         ids=["bool", "numpy-bool", "string", "complex", "too-large"])
@pytest.mark.parametrize("slot", range(3))
def test_su3_coefficients_are_real_numbers_and_no_bool(bad, slot):
    # the rule of u_sun's own check, on the SU(3) route
    coeffs = [2.0, 3.0, 4.0]
    coeffs[slot] = bad
    x = np.ones(6)
    with pytest.raises(ConfigurationError, match="real number, got "):
        su3_coefficients(*coeffs)
    with pytest.raises(ConfigurationError, match="real number, got "):
        u_su3(*coeffs, x, x)
    assert su3_coefficients(2, np.int64(3), Fraction(4)) == su3_coefficients(2.0, 3.0, 4.0)


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


@pytest.mark.parametrize("shape", [(3, 6), (2, 6), (2, 3, 6)])
def test_u_su3_broadcasts_leading_axes(shape):
    # a stack of vectors, of any leading shape, gives the results of its rows one by one;
    # leading axes of length 3 once indexed the matrix instead, silently
    rng = np.random.default_rng(29)
    c1, c2, c3 = 1.3, 0.7, 2.9
    x, y = rng.normal(size=shape), rng.normal(size=shape)
    rows = np.array([u_su3(c1, c2, c3, a, b) for a, b in zip(x.reshape(-1, 6), y.reshape(-1, 6))])
    stacked = u_su3(c1, c2, c3, x, y)
    assert stacked.shape == shape
    assert np.allclose(stacked.reshape(-1, 6), rows, rtol=1e-15, atol=1e-15)
    coeffs = {(1, 2): c1, (1, 3): c2, (2, 3): c3}
    assert np.allclose(stacked, u_sun(2, coeffs, x, y), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_su_exact_checks_are_judged_exactly(n):
    pl = pipeline("A", n)
    reports = {r.check_name: r for r in check_su_crosscheck(pl.rs, pl.sc, random_metric(pl.rs, n))}
    for name in ("su-bracket-tables", "su-killing-form"):
        assert reports[name].threshold == 0.0
        assert reports[name].max_residual == 0.0 and reports[name].passed


def _matrix_unit(n, i, j):
    """The dense matrix unit e_ij of gl(n+1), 1-based, for the references below."""
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


def _to_matrix_loop(al, x):
    """The per-root route that SuAlignment.to_matrix replaced, kept as its reference: one
    dense difference of matrix units per Cartan coefficient, one matrix unit per root."""
    n = al.n
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for s in range(al.rs.rank):
        if x.cartan[s]:
            out += x.cartan[s] * (_matrix_unit(n, s + 1, s + 1) - _matrix_unit(n, s + 2, s + 2))
    for gamma, c in x.roots.items():
        pos = al.rs.is_positive(gamma)
        alpha = gamma if pos else negate(gamma)
        r = simple_to_eps(n, alpha)
        if not pos:
            r = EpsRoot(r.j, r.i)
        out += c * al.signs[alpha] * _matrix_unit(n, r.i, r.j)
    return out


def _random_element(rs, rng, share):
    """Complex Cartan and root parts on about ``share`` of the roots; some real or imaginary
    parts are exactly zero, so that signed zeros meet the sums."""
    def parts(size):
        return (rng.normal(size=(size, 2)) * rng.integers(0, 2, size=(size, 2))) @ [1, 1j]

    picked = np.flatnonzero(rng.random(len(rs.roots)) < share)
    return LieElement(rs.rank, parts(rs.rank), dict(zip([rs.roots[k] for k in picked],
                                                        parts(len(picked)))))


@pytest.mark.parametrize("n", range(1, 9))
def test_to_matrix_equals_the_per_root_reference(n):
    rs, al = build_root_system("A", n), build_alignment(n)
    rng = np.random.default_rng(40 + n)
    for share in (0.0, 0.1, 0.5, 1.0, 1.0):
        x = _random_element(rs, rng, share)
        assert al.to_matrix(x).tobytes() == _to_matrix_loop(al, x).tobytes()
    for root in rs.roots:  # each basis image alone
        x = LieElement.root_vector(n, root, complex(*rng.normal(size=2)))
        assert al.to_matrix(x).tobytes() == _to_matrix_loop(al, x).tobytes()


def test_a_replaced_alignment_builds_its_own_table(a3):
    al = build_alignment(3)
    alpha = a3.rs.positive_roots[4]
    x = LieElement.root_vector(3, alpha)
    image = al.to_matrix(x)  # the table of al is built
    signs = dict(al.signs)
    signs[alpha] = -signs[alpha]
    flipped = dataclasses.replace(al, signs=MappingProxyType(signs))
    assert np.array_equal(flipped.to_matrix(x), -image)
    assert np.array_equal(flipped.to_matrix(x), _to_matrix_loop(flipped, x))


@pytest.mark.parametrize("key", [(2, 0), (1, -1), (1, 0, 0)])
def test_to_matrix_refuses_a_key_that_is_no_root(key):
    with pytest.raises(DomainError):
        build_alignment(2).to_matrix(LieElement(2, np.zeros(2), {key: 1.0}))


@pytest.mark.parametrize("rank", [2, 4])
def test_to_matrix_and_the_killing_form_refuse_another_rank(a3, rank):
    # a longer Cartan part was cut short, a shorter one raised IndexError
    other, same = LieElement(rank, np.arange(1, rank + 1)), LieElement(3, np.ones(3))
    with pytest.raises(DimensionError):
        build_alignment(3).to_matrix(other)
    for x, y in ((other, same), (same, other)):
        with pytest.raises(DimensionError):
            a3.killing.value(x, y)


@pytest.mark.parametrize("n", range(2, 7))
def test_the_crosscheck_builds_no_dense_image(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cross-check reads the images as matrix-unit entries only")

    for name in ("su_m_basis", "su_from_coords", "LieElement"):
        monkeypatch.setattr(flagconn.su_realization, name, refuse)
    monkeypatch.setattr(flagconn.su_realization.SuAlignment, "to_matrix", refuse)
    pl = pipeline("A", n)
    reports = check_su_crosscheck(pl.rs, pl.sc, random_metric(pl.rs, n))
    assert [r.passed for r in reports] == [True] * 3


def test_the_crosscheck_memory_stays_below_four_dense_grams():
    pl = pipeline("A", 20)
    spec = random_metric(pl.rs, 20)
    check_su_crosscheck(pl.rs, pl.sc, spec)  # warm-up: the cached tables and the metric
    gram_bytes = len(pl.killing.labels) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        check_su_crosscheck(pl.rs, pl.sc, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * gram_bytes


def _crosscheck_dense(rs, sc, spec, tolerance=DEFAULT_TOLERANCE):
    """The dense route that check_su_crosscheck replaced, kept as its reference: the
    (dim², n+1, n+1) commutator stacks of the per-root images and u_sun on every transported
    basis pair. It reads the same names through the su_realization namespace, so a patch
    reaches both."""
    su = flagconn.su_realization
    n = rs.rank
    al = su.build_alignment(n)
    kf = su.killing_gram(rs, sc)
    _, _, (x, o, y, v) = su._adjoint(rs, sc)
    phi = np.stack([
        _to_matrix_loop(al, LieElement(n, np.eye(n)[lab[1]]) if lab[0] == "H"
                        else LieElement.root_vector(n, lab[1]))
        for lab in kf.labels
    ])
    rhs = phi[:, None] @ phi[None, :] - phi[None, :] @ phi[:, None]
    lhs = np.zeros_like(rhs)
    np.add.at(lhs, (x, y), v[:, None, None] * phi[o])  # phi([x, y]) = sum_o ad[x, o, y] phi[o]
    brackets = np.abs(lhs - rhs).max(axis=(-2, -1))
    killing = np.abs(kf.gram - su_killing(n, phi[:, None], phi[None, :]))
    reports = [_residual_report("su-bracket-tables", brackets, 0.0),
               _residual_report("su-killing-form", killing, 0.0)]
    if n >= 2:
        coeffs = {simple_to_eps(n, a): spec.c(a) for a in rs.positive_roots}
        e = np.diag(al.coord_signs)  # row i: the transported basis vector e_i
        residual = u_sun(n, coeffs, e[:, None, :], e[None, :, :])
        i, j, k, u, _ = su._entries(sc, build_m_basis(rs), spec)
        residual[i, j, k] -= u * al.coord_signs[k]  # off the keys, u_sun's own value
        reports.append(_residual_report("su-u-term", np.abs(residual).max(axis=-1), tolerance))
    return reports


def _su_metrics(rs):
    """The normal metric, a log-uniform one in [0.1, 10] and one tied to the levels {1, 2}."""
    rng, k = np.random.default_rng(rs.rank), len(rs.positive_roots)
    yield MetricSpec.normal(rs)
    yield MetricSpec.from_values(rs, np.exp(rng.uniform(np.log(0.1), np.log(10.0), k)))
    yield MetricSpec.from_values(rs, rng.choice([1.0, 2.0], k))


def _both_routes(pl, spec):
    return check_su_crosscheck(pl.rs, pl.sc, spec), _crosscheck_dense(pl.rs, pl.sc, spec)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_entry_route_equals_the_dense_reference(n):
    pl = pipeline("A", n)
    for spec in _su_metrics(pl.rs):
        entries, dense = _both_routes(pl, spec)
        assert [r.check_name for r in entries] == [r.check_name for r in dense]
        assert [r.passed for r in entries] == [r.passed for r in dense] == [True] * len(dense)
        for ours, ref in zip(entries[:2], dense[:2]):  # the exact comparisons
            assert ours == ref and ours.max_residual == 0.0 and ours.witness is None
        if n >= 2:
            assert entries[2].max_residual <= entries[2].threshold == dense[2].threshold


def test_su_alignment_sign_negative_control(a3, monkeypatch):
    # E_alpha and both m coordinates of one non-simple root change sign together
    al = flagconn.su_realization.build_alignment(3)
    t = 4
    alpha = a3.rs.positive_roots[t]
    assert sum(alpha) == 2
    signs = dict(al.signs)
    signs[alpha] = -signs[alpha]
    coord_signs = al.coord_signs.copy()
    coord_signs[2 * t:2 * t + 2] *= -1
    flipped = dataclasses.replace(al, signs=MappingProxyType(signs), coord_signs=coord_signs)
    monkeypatch.setattr(flagconn.su_realization, "build_alignment", lambda n: flipped)
    entries, dense = _both_routes(a3, random_metric(a3.rs, 89))
    assert entries[:2] == dense[:2]
    assert not entries[0].passed and entries[0].max_residual == 2.0  # +-1 against -+1
    assert entries[1].passed  # the Killing form sees the sign squared
    assert not entries[2].passed and entries[2].witness == dense[2].witness


def _alignment_dense(n):
    """The dense route to the signs and coord_signs, kept as build_alignment's reference:
    each non-simple root splits off the first simple root that leaves a positive root, and
    N' is read off the commutator of the two dense matrix units."""
    rs = build_root_system("A", n)
    sc = chevalley_constants(rs)
    signs = {}
    for alpha in sorted(rs.positive_roots, key=sum):
        if sum(alpha) == 1:
            signs[alpha] = 1
            continue
        for simple in rs.simple_roots:
            beta = tuple(a - b for a, b in zip(alpha, simple))
            if beta in rs.all_roots and rs.is_positive(beta):
                e_b, e_s = (_matrix_unit(n, *simple_to_eps(n, r)) for r in (beta, simple))
                i, j = simple_to_eps(n, alpha)
                n_mat = int((e_b @ e_s - e_s @ e_b)[i - 1, j - 1].real)  # [e_b, e_s] = N' e_ij
                signs[alpha] = signs[beta] * n_mat * sc.n(beta, simple)
                break
    return signs, np.repeat([signs[alpha] for alpha in rs.positive_roots], 2).astype(float)


@pytest.mark.parametrize("n", range(1, 13))
def test_the_alignment_equals_the_dense_commutator_reference(n):
    signs, coord_signs = _alignment_dense(n)
    al = build_alignment(n)
    assert list(al.signs.items()) == list(signs.items())
    assert np.array_equal(al.coord_signs, coord_signs)


def test_the_alignment_refuses_a_constant_other_than_plus_or_minus_one(monkeypatch):
    # A2: (1, 1) splits into beta = (0, 1) and the simple root (1, 0)
    sc = chevalley_constants(build_root_system("A", 2))
    doubled = SimpleNamespace(n=lambda a, b: sc.n(a, b) * (2 if (a, b) == ((0, 1), (1, 0)) else 1))
    monkeypatch.setattr(flagconn.su_realization, "chevalley_constants", lambda rs: doubled)
    build_alignment.cache_clear()
    try:
        with pytest.raises(DomainError, match=r"N\(\(0, 1\), \(1, 0\)\) is -?2\b"):
            build_alignment(2)
    finally:
        build_alignment.cache_clear()


def test_su_coefficient_negative_control(a3, monkeypatch):
    validated = flagconn.su_realization._validated_coeffs

    def perturbed(n, coeffs):
        c = validated(n, coeffs).copy()
        c[0, 2] = c[2, 0] = c[0, 2] * (1 + 1e-3)  # the block of eps_1 - eps_3
        return c

    monkeypatch.setattr(flagconn.su_realization, "_validated_coeffs", perturbed)
    entries, dense = _both_routes(a3, random_metric(a3.rs, 89))
    assert entries[0].passed and entries[1].passed
    report = entries[2]
    assert not report.passed and report.witness == dense[2].witness
    assert report.max_residual == pytest.approx(dense[2].max_residual, rel=1e-9)
    assert report.max_residual > 1e-4


@pytest.mark.parametrize("form", list(COMPLEX_COORDS))
def test_complex_coordinates_are_refused_by_the_matrix_route(form):
    # the same forms as the pipeline's gates, refused by the same rule
    al = build_alignment(2)
    bad, ones = COMPLEX_COORDS[form](6), np.ones(6)
    coeffs = {EpsRoot(1, 2): 1.0, EpsRoot(1, 3): 2.0, EpsRoot(2, 3): 3.0}
    for call in (lambda: u_sun(2, coeffs, bad, ones), lambda: u_sun(2, coeffs, ones, bad),
                 lambda: u_su3(1.0, 2.0, 3.0, bad, ones), lambda: su_from_coords(2, bad),
                 lambda: al.transport(bad)):
        with pytest.raises(DomainError, match="must be real"):
            call()


@pytest.mark.parametrize("bad", [2.0, np.ones(1), np.ones(5), [1.0] * 7, np.ones((2, 3)),
                                 np.ones((6, 5))],
                         ids=["scalar", "length-1", "length-5", "list-7", "2x3", "6x5"])
def test_transport_refuses_another_last_axis(bad):
    # a scalar or a length-1 vector broadcast to a full vector, another length raised
    # a bare ValueError
    with pytest.raises(DimensionError):
        build_alignment(2).transport(bad)


def test_transport_keeps_leading_axes():
    al = build_alignment(3)
    x = np.random.default_rng(11).normal(size=(2, 4, 12))
    out = al.transport(x)
    assert out.shape == x.shape and np.array_equal(out[1, 2], al.transport(x[1, 2]))
    assert np.array_equal(al.transport(list(x[0, 0])), al.coord_signs * x[0, 0])
