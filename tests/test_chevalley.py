"""Structure constants, brackets, Killing form, and the m basis."""

import itertools

import numpy as np
import pytest

from flagconn import (
    DomainError,
    LieElement,
    RepresentationError,
    bracket,
    m_bracket_table,
    negate,
    project_m,
    project_root_space,
)
from flagconn.chevalley import root_string_p
from conftest import pipeline


def test_a2_simple_pair_constant_is_one(a2):
    a1, al2 = (1, 0), (0, 1)
    assert abs(a2.sc.n(a1, al2)) == 1  # p = 0: a2 - a1 is not a root
    assert a2.sc.n(al2, a1) == 1  # extraspecial pair (a2 < a1) is positive


def test_b2_string_lengths(b2):
    a1, a2 = (1, 0), (0, 1)
    assert abs(b2.sc.n(a1, a2)) == 1
    assert abs(b2.sc.n(a2, (1, 1))) == 2  # down string (1,1), (1,0) has p = 1
    assert root_string_p(b2.rs, a2, (1, 1)) == 1


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_constant_symmetries_and_magnitudes(family, rank):
    pl = pipeline(family, rank)
    rs, sc = pl.rs, pl.sc
    for (a, b), v in sc.n_coeff.items():
        assert sc.n_coeff[(b, a)] == -v
        assert sc.n_coeff[(negate(a), negate(b))] == -v
        assert abs(v) == root_string_p(rs, a, b) + 1


def _basis_elements(pl):
    rank = pl.rs.rank
    out = []
    for i in range(rank):
        cart = np.zeros(rank, dtype=complex)
        cart[i] = 1.0
        out.append(LieElement(rank, cart, {}))
    out.extend(LieElement.root_vector(rank, r) for r in sorted(pl.rs.all_roots))
    return out


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_jacobi_exhaustive_small(family, rank):
    pl = pipeline(family, rank)
    for x, y, z in itertools.combinations(_basis_elements(pl), 3):
        j = (
            bracket(pl.sc, x, bracket(pl.sc, y, z))
            + bracket(pl.sc, y, bracket(pl.sc, z, x))
            + bracket(pl.sc, z, bracket(pl.sc, x, y))
        )
        assert j.is_zero()


def test_bracket_grading(a2):
    rs = a2.rs
    for g in rs.all_roots:
        for d in rs.all_roots:
            out = bracket(a2.sc, LieElement.root_vector(2, g), LieElement.root_vector(2, d))
            s = tuple(x + y for x, y in zip(g, d))
            if s in rs.all_roots:
                assert set(out.roots) == {s}
                assert not out.cartan.any()
            elif not any(s):
                assert not out.roots and out.cartan.any()
            else:
                assert out.is_zero()


def test_bracket_definition_and_alternation(a2):
    e1 = LieElement.root_vector(2, (1, 0))
    e2 = LieElement.root_vector(2, (0, 1))
    out = bracket(a2.sc, e1, e2)
    assert out.roots == {(1, 1): a2.sc.n((1, 0), (0, 1))}
    assert bracket(a2.sc, e1, e1).is_zero()


def test_jacobi_on_random_gaussian_integer_elements(a3):
    rng = np.random.default_rng(7)
    def rand_elem():
        cart = rng.integers(-2, 3, size=3) + 1j * rng.integers(-2, 3, size=3)
        roots = {
            r: complex(int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            for r in list(a3.rs.all_roots)[::2]
        }
        return LieElement(3, cart, roots)

    for _ in range(5):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        j = (
            bracket(a3.sc, x, bracket(a3.sc, y, z))
            + bracket(a3.sc, y, bracket(a3.sc, z, x))
            + bracket(a3.sc, z, bracket(a3.sc, x, y))
        )
        assert j.is_zero()  # exact: all coefficients are Gaussian integers


def test_killing_root_space_orthogonality(a2):
    kf = a2.killing
    for g in a2.rs.all_roots:
        for d in a2.rs.all_roots:
            v = kf.gram[kf.index[("E", g)], kf.index[("E", d)]]
            if d != negate(g):
                assert v == 0
            else:
                assert v != 0


def test_killing_m_block_structure(a2):
    kf, mb = a2.killing, a2.mb
    for a in a2.rs.positive_roots:
        assert kf.value(mb.u_vec(a), mb.v_vec(a)) == 0
        assert kf.value(mb.u_vec(a), mb.u_vec(a)).real < 0  # -B positive definite
        for b in a2.rs.positive_roots:
            if a != b:
                for x in (mb.u_vec(a), mb.v_vec(a)):
                    for y in (mb.u_vec(b), mb.v_vec(b)):
                        assert kf.value(x, y) == 0


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_killing_ad_invariance_exhaustive(family, rank):
    pl = pipeline(family, rank)
    kf = pl.killing
    elems = _basis_elements(pl)
    for x, y, z in itertools.product(elems, repeat=3):
        lhs = kf.value(bracket(pl.sc, x, y), z) + kf.value(y, bracket(pl.sc, x, z))
        assert lhs == 0


def test_m_basis_order_and_shape(a2):
    assert pipeline("A", 1).mb.dim == 2
    assert a2.mb.dim == 6
    assert a2.mb.labels == (
        ((0, 1), "U"),
        ((0, 1), "V"),
        ((1, 0), "U"),
        ((1, 0), "V"),
        ((1, 1), "U"),
        ((1, 1), "V"),
    )


def test_m_basis_entries(a2):
    for alpha in a2.rs.positive_roots:
        for e in (a2.mb.u_vec(alpha), a2.mb.v_vec(alpha)):
            assert not e.cartan.any()
            assert set(e.roots) == {alpha, negate(alpha)}
            a, b = e.roots[alpha], e.roots[negate(alpha)]
            assert b == -a.conjugate()  # reality condition
    with pytest.raises(DomainError):
        a2.mb.u_vec((-1, 0))


def test_projection_round_trip(a3):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=a3.mb.dim)
        assert np.array_equal(project_m(a3.mb, a3.mb.to_lie(x)), x)


def test_project_m_of_cartan_is_zero(a2):
    h = LieElement(2, np.array([1.0 + 2.0j, -3.0]), {})
    assert not project_m(a2.mb, h).any()


def test_project_m_unit_coordinates(a2):
    for k, (alpha, kind) in enumerate(a2.mb.labels):
        e = a2.mb.u_vec(alpha) if kind == "U" else a2.mb.v_vec(alpha)
        coords = project_m(a2.mb, e)
        expected = np.zeros(a2.mb.dim)
        expected[k] = 1.0
        assert np.array_equal(coords, expected)


def test_project_m_rejects_reality_violation(a2):
    bad = LieElement(2, np.zeros(2), {(1, 0): 1.0, (-1, 0): 1.0})
    with pytest.raises(RepresentationError):
        project_m(a2.mb, bad)


def test_project_root_space(a2):
    alpha = (1, 0)
    v = a2.mb.v_vec(alpha)
    assert project_root_space(v, negate(alpha)) == 1.0j
    assert project_root_space(v, alpha) == 1.0j
    assert project_root_space(v, (1, 1)) == 0


def test_m_bracket_of_m_vectors_is_real(a3):
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = a3.mb.to_lie(rng.normal(size=a3.mb.dim))
        y = a3.mb.to_lie(rng.normal(size=a3.mb.dim))
        project_m(a3.mb, bracket(a3.sc, x, y))  # raises if reality is broken


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_m_bracket_table_matches_direct_brackets(family, rank):
    pl = pipeline(family, rank)
    table = m_bracket_table(pl.sc, pl.mb)
    for i, (alpha, kind) in enumerate(pl.mb.labels):
        ei = pl.mb.u_vec(alpha) if kind == "U" else pl.mb.v_vec(alpha)
        for j, (beta, kind2) in enumerate(pl.mb.labels):
            ej = pl.mb.u_vec(beta) if kind2 == "U" else pl.mb.v_vec(beta)
            direct = project_m(pl.mb, bracket(pl.sc, ei, ej))
            assert np.array_equal(table[i, j], direct)
