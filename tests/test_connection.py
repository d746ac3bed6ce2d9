"""Canonical pairs, the closed-form U, and tensor assembly."""

import re
import tracemalloc

import numpy as np
import pytest

import flagconn.connection
from flagconn import (
    ConfigurationError,
    DimensionError,
    DomainError,
    MetricSpec,
    assemble_tensor,
    build_metric,
    canonical_pair,
    inner,
    lex_compare,
    m_bracket_table,
    nabla,
    negate,
    project_m,
    u_bilinear,
    u_oracle,
    u_root_pair,
    z_term,
)
from conftest import RANK_LE_4, pipeline, random_metric, random_mvector

A2_C123 = [1.0, 2.0, 3.0]  # keyed by lex-ascending positive roots: a2, a1, a1+a2


def _passes_selection(rs, a1, a2):
    if not rs.is_positive(a2):
        return False
    aa1 = a1 if rs.is_positive(a1) else negate(a1)
    return lex_compare(rs, aa1, a2) == -1


def test_canonical_pair_a2_example(a2):
    a1, al2 = (1, 0), (0, 1)
    assert canonical_pair(a2.rs, a1, al2) == (al2, a1)  # al2 < a1 in lex order


def test_canonical_pair_negation_invariance(a2):
    for g in a2.rs.all_roots:
        for d in a2.rs.all_roots:
            if g == d or g == negate(d):
                continue
            assert canonical_pair(a2.rs, g, d) == canonical_pair(a2.rs, negate(g), negate(d))


@pytest.mark.parametrize("family,rank", [("A", 3), ("C", 3), ("D", 4)])
def test_canonical_pair_exhaustive_uniqueness(family, rank):
    rs = pipeline(family, rank).rs
    for g in rs.all_roots:
        for d in rs.all_roots:
            if g == d or g == negate(d):
                continue
            candidates = [(g, d), (d, g), (negate(g), negate(d)), (negate(d), negate(g))]
            passing = [c for c in candidates if _passes_selection(rs, *c)]
            assert len(passing) == 1
            assert canonical_pair(rs, g, d) == passing[0]


def test_canonical_pair_degenerate_arguments(a2):
    with pytest.raises(DomainError):
        canonical_pair(a2.rs, (1, 0), (1, 0))
    with pytest.raises(DomainError):
        canonical_pair(a2.rs, (1, 0), (-1, 0))


def test_u_root_pair_zero_branches(a2):
    spec = MetricSpec.from_values(a2.rs, A2_C123)
    a1 = (1, 0)
    assert u_root_pair(a2.sc, spec, 1.0, 1.0, a1, a1).is_zero()  # 2a not a root
    assert u_root_pair(a2.sc, spec, 1.0, 1.0, a1, negate(a1)).is_zero()  # sum zero
    with pytest.raises(DomainError):
        u_root_pair(a2.sc, spec, 1.0, 1.0, (2, 0), a1)


def test_u_root_pair_coefficient(a2):
    # c(a1) = 1, c(a2) = 2, c(a1+a2) = 1: coefficient (1 - 2) / 2 = -1/2
    spec = MetricSpec({(1, 0): 1.0, (0, 1): 2.0, (1, 1): 1.0})
    a1, al2 = (1, 0), (0, 1)
    out = u_root_pair(a2.sc, spec, 1.0, 1.0, a1, al2)
    assert set(out.roots) == {(1, 1)}
    assert out.roots[(1, 1)] == -0.5 * a2.sc.n(al2, a1)

    equal = MetricSpec.normal(a2.rs)
    assert u_root_pair(a2.sc, equal, 1.0, 1.0, a1, al2).is_zero()


_MISSING = object()


@pytest.mark.parametrize("bad", [_MISSING, 0, -1, np.nan, np.inf, True, np.True_, "2.0", 2j,
                                 10 ** 400],
                         ids=["missing", "zero", "negative", "nan", "inf", "bool", "numpy-bool",
                              "string", "complex", "too-large"])
@pytest.mark.parametrize("slot", range(3))
def test_u_root_pair_judges_the_metric_by_the_coefficient_rule(a2, bad, slot):
    # (1, 0) + (0, 1) = (1, 1) reads all three coefficients; (1, 0) + (1, 0) reads none
    root = a2.rs.positive_roots[slot]
    coeffs = dict(zip(a2.rs.positive_roots, A2_C123))
    if bad is _MISSING:
        del coeffs[root]
    else:
        coeffs[root] = bad
    for gamma, delta in (((1, 0), (0, 1)), ((1, 0), (1, 0))):
        with pytest.raises(ConfigurationError, match=re.escape(f"root {root}")):
            u_root_pair(a2.sc, MetricSpec(coeffs), 1.0, 1.0, gamma, delta)


def test_z_term_vanishes_on_zero_input(b2):
    spec = random_metric(b2.rs, 3)
    zero = np.zeros(b2.mb.dim)
    x = random_mvector(b2.mb.dim, np.random.default_rng(1))
    for a in b2.rs.positive_roots:
        for b in b2.rs.positive_roots:
            assert not z_term(b2.sc, b2.mb, zero, x, a, b).any()


def test_z_term_symmetries(b2):
    """Negating both roots preserves Z; swapping them negates it.

    Combined with the antisymmetry of the coefficient under the swap, the
    grouped summand coeff * Z is invariant over the four pair relabelings,
    which is exactly what the grouping into canonical pairs requires.
    """
    rng = np.random.default_rng(17)
    x = random_mvector(b2.mb.dim, rng)
    y = random_mvector(b2.mb.dim, rng)
    for a in b2.rs.all_roots:
        for b in b2.rs.all_roots:
            z_ab = z_term(b2.sc, b2.mb, x, y, a, b)
            assert np.array_equal(z_term(b2.sc, b2.mb, x, y, negate(a), negate(b)), z_ab)
            assert np.array_equal(z_term(b2.sc, b2.mb, x, y, b, a), -z_ab)


def test_z_term_grouped_summand_invariance(b2):
    from flagconn.rootsys import abs_root, add_roots

    rs = b2.rs
    spec = random_metric(rs, 29)
    rng = np.random.default_rng(31)
    x = random_mvector(b2.mb.dim, rng)
    y = random_mvector(b2.mb.dim, rng)

    def summand(a, b):
        s = add_roots(a, b)
        coeff = (spec.c(abs_root(rs, a)) - spec.c(abs_root(rs, b))) / (
            2 * spec.c(abs_root(rs, s))
        )
        return coeff * z_term(b2.sc, b2.mb, x, y, a, b)

    for a in rs.all_roots:
        for b in rs.all_roots:
            if add_roots(a, b) not in rs.all_roots:
                continue
            base = summand(a, b)
            for other in ((b, a), (negate(a), negate(b)), (negate(b), negate(a))):
                assert np.allclose(summand(*other), base, atol=1e-12)


def test_z_term_equal_roots_literal(a2):
    # Z at (a, a) is four brackets that all vanish: [X_a, Y_a] sits in g^{2a}
    rng = np.random.default_rng(41)
    x = random_mvector(a2.mb.dim, rng)
    y = random_mvector(a2.mb.dim, rng)
    for a in a2.rs.positive_roots:
        assert not z_term(a2.sc, a2.mb, x, y, a, a).any()


def test_u_bilinear_vanishes_for_equal_coefficients(b2):
    spec = MetricSpec.normal(b2.rs, 2.5)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = random_mvector(b2.mb.dim, rng)
        y = random_mvector(b2.mb.dim, rng)
        assert not u_bilinear(b2.sc, b2.mb, spec, x, y).any()


def test_u_bilinear_vanishes_on_a_single_block(a2):
    spec = MetricSpec.from_values(a2.rs, A2_C123)
    for k, alpha in enumerate(a2.rs.positive_roots):
        x = np.zeros(a2.mb.dim)
        x[2 * k] = 0.7
        x[2 * k + 1] = -1.3
        assert not u_bilinear(a2.sc, a2.mb, spec, x, x).any()


def test_u_bilinear_frozen_a2_value(a2):
    """U(U_a1, U_a2) with c = (1, 2, 3): equals (1/6) U_{a1+a2}.

    Value frozen from an independent evaluation of the defining linear
    condition; also re-derived here against the in-package oracle.
    """
    spec = MetricSpec.from_values(a2.rs, A2_C123)
    x = a2.mb.basis_vector(2)  # U_{a1}
    y = a2.mb.basis_vector(0)  # U_{a2}
    got = u_bilinear(a2.sc, a2.mb, spec, x, y)
    expected = np.array([0.0, 0.0, 0.0, 0.0, 1.0 / 6.0, 0.0])
    assert np.allclose(got, expected, atol=1e-15)

    gram = build_metric(a2.rs, a2.killing, spec)
    assert np.allclose(u_oracle(a2.rs, a2.sc, gram, x, y), expected, atol=1e-15)


def test_u_bilinear_symmetry_and_bilinearity(b2):
    spec = random_metric(b2.rs, 13)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = random_mvector(b2.mb.dim, rng)
        xp = random_mvector(b2.mb.dim, rng)
        y = random_mvector(b2.mb.dim, rng)
        a, b = rng.normal(), rng.normal()
        u_xy = u_bilinear(b2.sc, b2.mb, spec, x, y)
        assert np.allclose(u_bilinear(b2.sc, b2.mb, spec, y, x), u_xy, atol=1e-12)
        lhs = u_bilinear(b2.sc, b2.mb, spec, a * x + b * xp, y)
        rhs = a * u_xy + b * u_bilinear(b2.sc, b2.mb, spec, xp, y)
        assert np.allclose(lhs, rhs, atol=1e-9)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_componentwise_route_matches_u_bilinear(family, rank):
    """Summing U over all root-component pairs agrees with u_bilinear.

    u_bilinear weights the m-bracket table entry by entry; this route sums the
    componentwise formula over every pair of root components instead, so both
    must produce the same map.
    """
    from flagconn import LieElement

    pl = pipeline(family, rank)
    spec = random_metric(pl.rs, 47)
    rng = np.random.default_rng(53)
    for _ in range(4):
        x = random_mvector(pl.mb.dim, rng)
        y = random_mvector(pl.mb.dim, rng)
        dx = pl.mb.to_lie(x).roots
        dy = pl.mb.to_lie(y).roots
        total = LieElement.zero(pl.rs.rank)
        for gamma, xg in dx.items():
            for delta, yd in dy.items():
                total = total + u_root_pair(pl.sc, spec, xg, yd, gamma, delta)
        componentwise = project_m(pl.mb, total)
        grouped = u_bilinear(pl.sc, pl.mb, spec, x, y)
        assert np.allclose(componentwise, grouped, atol=1e-12)


@pytest.mark.parametrize("length", [5, 7])
def test_point_queries_reject_wrong_coordinate_length(a2, length):
    spec = MetricSpec.from_values(a2.rs, A2_C123)
    good, bad = np.ones(a2.mb.dim), np.ones(length)
    for fn in (u_bilinear, nabla):
        with pytest.raises(DimensionError):
            fn(a2.sc, a2.mb, spec, bad, good)
        with pytest.raises(DimensionError):
            fn(a2.sc, a2.mb, spec, good, bad)


def test_nabla_reduces_to_half_bracket_for_normal_metric(b2):
    spec = MetricSpec.normal(b2.rs)
    table = m_bracket_table(b2.sc, b2.mb)
    rng = np.random.default_rng(59)
    x = random_mvector(b2.mb.dim, rng)
    y = random_mvector(b2.mb.dim, rng)
    expected = 0.5 * np.einsum("ijk,i,j->k", table, x, y)
    assert np.allclose(nabla(b2.sc, b2.mb, spec, x, y), expected, atol=1e-12)


def test_nabla_torsion_identity_on_random_pairs(b2):
    spec = random_metric(b2.rs, 61)
    table = m_bracket_table(b2.sc, b2.mb)
    rng = np.random.default_rng(67)
    for _ in range(5):
        x = random_mvector(b2.mb.dim, rng)
        y = random_mvector(b2.mb.dim, rng)
        lhs = nabla(b2.sc, b2.mb, spec, x, y) - nabla(b2.sc, b2.mb, spec, y, x)
        rhs = np.einsum("ijk,i,j->k", table, x, y)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_nabla_frozen_a2_value(a2):
    # nabla_{U_a1} U_a2 = 1/2 [U_a1, U_a2]_m + U(...) = -1/2 U_theta + 1/6 U_theta
    spec = MetricSpec.from_values(a2.rs, A2_C123)
    got = nabla(a2.sc, a2.mb, spec, a2.mb.basis_vector(2), a2.mb.basis_vector(0))
    expected = np.array([0.0, 0.0, 0.0, 0.0, -1.0 / 3.0, 0.0])
    assert np.allclose(got, expected, atol=1e-15)


def test_tensor_vanishes_on_a1():
    pl = pipeline("A", 1)
    spec = MetricSpec.from_values(pl.rs, [4.2])
    tensor = assemble_tensor(pl.sc, pl.mb, spec)
    assert not tensor.gamma.any()


def test_tensor_normal_metric_is_half_bracket(a2):
    tensor = assemble_tensor(a2.sc, a2.mb, MetricSpec.normal(a2.rs))
    assert np.array_equal(tensor.gamma, 0.5 * m_bracket_table(a2.sc, a2.mb))


def test_tensor_entries_equal_nabla_on_basis_pairs(b2):
    spec = random_metric(b2.rs, 71)
    tensor = assemble_tensor(b2.sc, b2.mb, spec)
    for i in range(b2.mb.dim):
        for j in range(b2.mb.dim):
            direct = nabla(b2.sc, b2.mb, spec, b2.mb.basis_vector(i), b2.mb.basis_vector(j))
            assert np.allclose(tensor.gamma[i, j], direct, atol=1e-12)


def test_tensor_matches_oracle_assembly_a2(a2):
    spec = MetricSpec.from_values(a2.rs, A2_C123)
    gram = build_metric(a2.rs, a2.killing, spec)
    tensor = assemble_tensor(a2.sc, a2.mb, spec)
    table = m_bracket_table(a2.sc, a2.mb)
    for i in range(a2.mb.dim):
        for j in range(a2.mb.dim):
            expected = 0.5 * table[i, j] + u_oracle(
                a2.rs, a2.sc, gram, a2.mb.basis_vector(i), a2.mb.basis_vector(j)
            )
            assert np.allclose(tensor.gamma[i, j], expected, atol=1e-9)
    assert np.all(np.isfinite(tensor.gamma))


@pytest.mark.parametrize("bad", ["missing", 0.0, -1.0, np.nan, np.inf, "2.0", 2j, 3 + 0j, None,
                                 [2.0]],
                         ids=["missing", "zero", "negative", "nan", "inf", "string",
                              "complex", "complex-equal-to-cached", "none", "list"])
def test_point_queries_validate_the_metric(a2, bad):
    # the valid metric A2_C123 is in the memo first, so a value that compares
    # equal to its cached one (3 + 0j == 3.0) must not be taken for it
    coeffs = dict(zip(a2.rs.positive_roots, A2_C123))
    nabla(a2.sc, a2.mb, MetricSpec(dict(coeffs)), np.ones(a2.mb.dim), np.ones(a2.mb.dim))
    build_metric(a2.rs, a2.killing, MetricSpec(dict(coeffs)))  # the Gram memo too
    if bad == "missing":
        del coeffs[(1, 1)]
    else:
        coeffs[(1, 1)] = bad
    spec = MetricSpec(coeffs)
    x = np.ones(a2.mb.dim)
    for fn in (u_bilinear, nabla):
        with pytest.raises(ConfigurationError, match=r"\(1, 1\)"):
            fn(a2.sc, a2.mb, spec, x, x)
    with pytest.raises(ConfigurationError, match=r"\(1, 1\)"):
        assemble_tensor(a2.sc, a2.mb, spec)
    with pytest.raises(ConfigurationError, match=r"\(1, 1\)"):
        build_metric(a2.rs, a2.killing, spec)


def test_metric_mutated_in_place_is_a_new_metric(b2):
    spec = random_metric(b2.rs, 101)
    rng = np.random.default_rng(103)
    x, y = random_mvector(b2.mb.dim, rng), random_mvector(b2.mb.dim, rng)
    before = nabla(b2.sc, b2.mb, spec, x, y)
    spec.coeffs[b2.rs.positive_roots[0]] *= 3.0
    after = nabla(b2.sc, b2.mb, spec, x, y)
    fresh = MetricSpec(dict(spec.coeffs))
    assert np.array_equal(after, nabla(b2.sc, b2.mb, fresh, x, y))
    assert not np.array_equal(after, before)


def test_alternating_metrics_repeat_their_results(b2):
    specs = [random_metric(b2.rs, 107), random_metric(b2.rs, 109)]
    rng = np.random.default_rng(113)
    x, y = random_mvector(b2.mb.dim, rng), random_mvector(b2.mb.dim, rng)

    def results(spec):
        return (nabla(b2.sc, b2.mb, spec, x, y), u_bilinear(b2.sc, b2.mb, spec, x, y),
                assemble_tensor(b2.sc, b2.mb, spec).gamma)

    first = [results(spec) for spec in specs]
    for _ in range(2):
        for spec, expected in zip(specs, first):
            for got, want in zip(results(spec), expected):
                assert np.array_equal(got, want)


def test_cached_entries_are_read_only(b2):
    entries = flagconn.connection._entries(b2.sc, b2.mb, random_metric(b2.rs, 127))
    assert len(entries) == 5  # i, j, k, u, gamma
    for a in entries:
        with pytest.raises(ValueError):
            a[0] = 0


def _block_vector(mb, rng):
    """Random coordinates on one to three root blocks, zero elsewhere."""
    x = np.zeros(mb.dim)
    for p in rng.choice(mb.dim // 2, size=min(rng.integers(1, 4), mb.dim // 2), replace=False):
        x[2 * p:2 * p + 2] = rng.normal(size=2)
    return x


@pytest.mark.parametrize("family,rank", RANK_LE_4 + [("A", 6)])
def test_fused_nabla_matches_half_bracket_plus_u(family, rank):
    pl = pipeline(family, rank)
    spec = random_metric(pl.rs, 131)
    gram = build_metric(pl.rs, pl.killing, spec)
    table = m_bracket_table(pl.sc, pl.mb)
    rng = np.random.default_rng(137)
    for kind in ("dense", "dense", "blocks", "blocks", "blocks"):
        if kind == "dense":
            x, y = random_mvector(pl.mb.dim, rng), random_mvector(pl.mb.dim, rng)
        else:
            x, y = _block_vector(pl.mb, rng), _block_vector(pl.mb, rng)
        got = nabla(pl.sc, pl.mb, spec, x, y)
        half = 0.5 * np.einsum("ijk,i,j->k", table, x, y)
        for u in (u_oracle(pl.rs, pl.sc, gram, x, y), u_bilinear(pl.sc, pl.mb, spec, x, y)):
            expected = half + u
            scale = max(np.abs(expected).max(), np.abs(x).max() * np.abs(y).max())
            assert np.abs(got - expected).max() <= 1e-12 * scale, (kind, family, rank)


@pytest.mark.parametrize("family,rank", RANK_LE_4 + [("A", 6)])
def test_point_queries_equal_the_weighted_bincount_bit_for_bit(family, rank):
    """nabla and u_bilinear are bincount(k, weights=w * x_i * y_j) over the entries, w the
    gamma or u entries, byte for byte: dense vectors and vectors on one or two root blocks."""
    pl = pipeline(family, rank)
    spec = random_metric(pl.rs, 149)
    i, j, k, u, gamma = flagconn.connection._entries(pl.sc, pl.mb, spec)
    rng, blocks = np.random.default_rng(151), pl.mb.dim // 2
    pairs = [(random_mvector(pl.mb.dim, rng), random_mvector(pl.mb.dim, rng)) for _ in range(2)]
    for count in (1, 2):
        x, y = np.zeros(pl.mb.dim), np.zeros(pl.mb.dim)
        for v in (x, y):
            for p in rng.choice(blocks, size=min(count, blocks), replace=False):
                v[2 * p:2 * p + 2] = rng.normal(size=2)
        pairs.append((x, y))
    for x, y in pairs:
        for query, w in ((nabla, gamma), (u_bilinear, u)):
            got = query(pl.sc, pl.mb, spec, x, y)
            want = np.bincount(k, weights=w * x[i] * y[j], minlength=pl.mb.dim).astype(float)
            assert got.dtype == float and got.tobytes() == want.tobytes(), query.__name__
            if family == "A" and rank == 1:
                assert not got.any()


def test_assemble_tensor_memory_stays_below_one_and_a_half_dense_arrays():
    pl = pipeline("A", 10)
    flagconn.connection.m_bracket_entries(pl.sc, pl.mb)  # per-system, metric-independent
    spec = random_metric(pl.rs, 139)  # a new metric: its entries are computed in the trace
    dense_bytes = 8 * pl.mb.dim ** 3
    tracemalloc.start()
    try:
        assemble_tensor(pl.sc, pl.mb, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * dense_bytes


def test_point_queries_are_float_zeros_without_bracket_entries():
    pl = pipeline("A", 1)  # one positive root: [m, m]_m = 0
    spec = MetricSpec.from_values(pl.rs, [2.0])
    gram = build_metric(pl.rs, pl.killing, spec)
    x, y = np.ones(2), np.arange(2.0)
    for got in (nabla(pl.sc, pl.mb, spec, x, y), u_bilinear(pl.sc, pl.mb, spec, x, y),
                u_oracle(pl.rs, pl.sc, gram, x, y)):
        assert got.dtype == float and not got.any()


# complex m coordinates: an array, a list of numpy complex entries and a Python list; a
# complex array was cast to its real part with only a ComplexWarning, a Python list raised
# a bare TypeError
COMPLEX_COORDS = {"array": lambda dim: 1j * np.ones(dim),
                  "numpy-entries": lambda dim: [np.complex128(1j)] * dim,
                  "python-list": lambda dim: [1 + 1j] * dim}


@pytest.mark.parametrize("form", list(COMPLEX_COORDS))
def test_complex_coordinates_are_refused_at_every_gate(a2, form):
    spec = random_metric(a2.rs, 5)
    gram = build_metric(a2.rs, a2.killing, spec)
    bad, ones = COMPLEX_COORDS[form](a2.mb.dim), np.ones(a2.mb.dim)
    calls = [lambda: nabla(a2.sc, a2.mb, spec, bad, ones),
             lambda: nabla(a2.sc, a2.mb, spec, ones, bad),
             lambda: u_bilinear(a2.sc, a2.mb, spec, bad, ones),
             lambda: u_oracle(a2.rs, a2.sc, gram, ones, bad),
             lambda: a2.mb.to_lie(bad),
             lambda: inner(gram, bad, ones)]
    for call in calls:
        with pytest.raises(DomainError, match="must be real"):
            call()


def test_real_coordinates_of_any_real_dtype_give_the_float_answer(b2):
    spec = random_metric(b2.rs, 7)
    gram = build_metric(b2.rs, b2.killing, spec)
    x = np.arange(b2.mb.dim) % 3 - 1
    y = np.arange(b2.mb.dim)[::-1] % 2
    want = nabla(b2.sc, b2.mb, spec, x.astype(float), y.astype(float))
    for xs, ys in ((x, y), (x.tolist(), y.tolist()), (x.astype(np.float32), y.astype(np.int8))):
        assert nabla(b2.sc, b2.mb, spec, xs, ys).tobytes() == want.tobytes()
        assert u_oracle(b2.rs, b2.sc, gram, xs, ys).dtype == np.float64
        assert inner(gram, xs, ys) == inner(gram, x.astype(float), y.astype(float))
