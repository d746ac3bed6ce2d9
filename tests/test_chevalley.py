"""Structure constants, brackets, Killing form, and the m basis."""

import itertools
import tracemalloc

import numpy as np
import pytest

from flagconn import (
    DimensionError,
    DomainError,
    LieElement,
    RepresentationError,
    bracket,
    build_alignment,
    build_m_basis,
    build_root_system,
    chevalley_constants,
    killing_gram,
    m_bracket_table,
    negate,
    project_m,
    project_root_space,
)
from flagconn.chevalley import _adjoint, m_bracket_entries, root_string_p
from conftest import RANK_LE_4, pipeline


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


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_adjoint_entries_and_killing_gram_match_dense_brackets(family, rank):
    pl = pipeline(family, rank)
    labels, index, entries = _adjoint(pl.rs, pl.sc)
    assert labels == pl.killing.labels
    basis = [LieElement(rank, np.eye(rank)[lab[1]]) if lab[0] == "H"
             else LieElement.root_vector(rank, lab[1]) for lab in labels]
    dense = np.zeros((len(labels),) * 3, dtype=complex)
    for x, bx in enumerate(basis):
        for i, bi in enumerate(basis):
            z = bracket(pl.sc, bx, bi)
            dense[x, :rank, i] = z.cartan
            for r, c in z.roots.items():
                dense[x, index[("E", r)], i] = c
    ad = dense.real.astype(np.int64)
    assert np.array_equal(ad, dense)

    x, o, i, v = entries
    assert entries.dtype == np.int64 and np.all(v != 0)
    assert len(set(zip(x.tolist(), o.tolist(), i.tolist()))) == len(v)  # one entry per slot
    scattered = np.zeros_like(ad)
    scattered[x, o, i] = v
    assert np.array_equal(scattered, ad)

    gram = pl.killing.gram
    assert gram.dtype == np.int64
    assert np.array_equal(gram, np.einsum("aij,bji->ab", ad, ad))


def _sum_table_entries(sc):
    """The m-bracket entries by a direct loop over rs.sum_table, the reference for their order."""
    rs = sc.rs
    block = {a: p for p, a in enumerate(rs.positive_roots)}
    block.update({negate(a): p for a, p in block.items()})
    p, q, r, sg, sd, n = np.array([
        (block[g], block[d], block[s], 1 if rs.is_positive(g) else -1,
         1 if rs.is_positive(d) else -1, sc.n_coeff[(g, d)])
        for (g, d), s in rs.sum_table.items() if rs.is_positive(s)
    ], dtype=np.intp).reshape(-1, 6).T
    i = np.concatenate([2 * p, 2 * p, 2 * p + 1, 2 * p + 1])
    j = np.concatenate([2 * q, 2 * q + 1, 2 * q, 2 * q + 1])
    k = np.concatenate([2 * r, 2 * r + 1, 2 * r + 1, 2 * r])
    t = np.concatenate([sg * sd * n, sg * n, sd * n, -n]).astype(float)
    return i, j, k, t


@pytest.mark.parametrize("family,rank", RANK_LE_4 + [("A", 6), ("B", 5), ("C", 5), ("D", 5)])
def test_m_bracket_entries_are_the_adjoint_rows_in_sum_table_order(family, rank):
    pl = pipeline(family, rank)
    got = m_bracket_entries(pl.sc, pl.mb)
    i, j, k, t = _sum_table_entries(pl.sc)
    order = np.lexsort((k, j, i))  # the entries come sorted row-major by (i, j, k)
    for a, b in zip(got, (i[order], j[order], k[order], t[order]), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_killing_gram_memory_stays_below_one_dense_stack():
    rs = build_root_system("A", 8)
    sc = chevalley_constants(rs)
    dim = rs.rank + len(rs.all_roots)
    stack_bytes = dim ** 3 * np.dtype(np.int64).itemsize
    _adjoint.cache_clear()
    tracemalloc.start()
    try:
        killing_gram.__wrapped__(rs, sc)  # uncached: builds the gram afresh
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


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


@pytest.mark.parametrize("alpha,beta", [((0, 0), (1, 0)), ((1, 0), (5, 5)), ((2, 0), (1, 0)),
                                        ((1, 0), (0, 0))])
def test_root_string_p_takes_roots_only(a2, alpha, beta):
    # a zero alpha never ended the string; (5, 5) gave 0 and (2, 0) gave 1
    with pytest.raises(DomainError):
        root_string_p(a2.rs, alpha, beta)


def test_e_pair_takes_roots_only(a2):
    assert a2.killing.e_pair((1, 1)) == a2.killing.e_pair((-1, -1)) != 0
    for key in ((2, 0), (0, 0), (1, 0, 0)):
        with pytest.raises(DomainError):  # was a bare KeyError
            a2.killing.e_pair(key)


def test_basis_vector_takes_an_index_of_the_basis(a2):
    assert np.array_equal(a2.mb.basis_vector(np.int64(2)), np.eye(6)[2])
    assert np.array_equal(a2.mb.basis_vector(5), np.eye(6)[5])
    # -1 was the last vector, True the all-ones one; 6 and 1.0 raised IndexError
    for k in (-1, 6, True, np.True_, 1.0, "2", None):
        with pytest.raises(DomainError):
            a2.mb.basis_vector(k)


def test_elements_of_another_shape_or_rank_are_refused(a2):
    with pytest.raises(DimensionError):
        LieElement(2, [1.0])
    with pytest.raises(DimensionError):
        LieElement.zero(2) + LieElement.zero(3)
    other = LieElement.root_vector(3, (1, 0, 0))
    for call in (lambda: bracket(a2.sc, other, a2.mb.u_vec((1, 0))),
                 lambda: bracket(a2.sc, a2.mb.u_vec((1, 0)), other),
                 lambda: project_m(a2.mb, other)):
        with pytest.raises(DimensionError):
            call()


def test_difference_and_scalar_multiple_of_elements():
    x = LieElement(2, [1.0, 2.0], {(1, 0): 2.0, (0, 1): 1.0j})
    y = LieElement(2, [1.0, 0.0], {(1, 0): 2.0, (-1, -1): 3.0})
    assert (x - y).roots == {(0, 1): 1.0j, (-1, -1): -3.0}
    assert np.array_equal((x - y).cartan, [0.0, 2.0])
    assert (3 * x).roots == {(1, 0): 6.0, (0, 1): 3.0j} and np.array_equal((3 * x).cartan, [3, 6])


def test_n_is_undefined_off_the_sum_table(a2):
    with pytest.raises(DomainError):
        a2.sc.n((1, 0), (-1, 0))


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


@pytest.mark.parametrize("family,rank", RANK_LE_4 + [("A", 6), ("B", 5), ("C", 5), ("D", 5)])
def test_m_bracket_keys_are_sorted_and_closed_under_permutation(family, rank):
    pl = pipeline(family, rank)
    i, j, k, _ = m_bracket_entries(pl.sc, pl.mb)
    assert np.all(np.diff((i * pl.mb.dim + j) * pl.mb.dim + k) > 0)  # strictly ascending
    keys = set(zip(i.tolist(), j.tolist(), k.tolist()))
    for perm in list(itertools.permutations(range(3)))[1:]:
        assert {tuple(key[p] for p in perm) for key in keys} == keys, perm


def test_shared_per_system_tables_are_read_only():
    rs = build_root_system("A", 3)
    sc = chevalley_constants(rs)
    kf = killing_gram(rs, sc)
    mb = build_m_basis(rs)
    al = build_alignment(3)
    pair = next(iter(rs.sum_table))
    with pytest.raises(AttributeError):
        rs.sum_table.clear()
    for table, key in ((rs.sum_table, pair), (rs.norm_table, pair[0]), (sc.n_coeff, pair),
                       (sc.coroot_table, pair[0]), (kf.index, ("H", 0)), (mb.index, mb.labels[0]),
                       (al.signs, rs.positive_roots[0])):
        with pytest.raises(TypeError):
            table[key] = 0
    for array in (kf.gram, al.coord_signs, rs.coords, rs.norms, rs.coroots):
        with pytest.raises(ValueError):
            array[0] = 0
    assert not hasattr(al, "sc")
    assert rs.sum_table[pair] == tuple(a + b for a, b in zip(*pair))
