"""Root system construction, order, and membership tables."""

import itertools
import sys

import numpy as np
import pytest

from flagconn import (
    ConfigurationError,
    DimensionError,
    DomainError,
    abs_root,
    build_root_system,
    chevalley_constants,
    lex_compare,
    negate,
    root_sum,
)
from conftest import RANK_LE_4, pipeline


def weyl_closure(rs):
    """Independent oracle: close the simple roots under simple reflections.

    s_i(b) = b - <b, alpha_i^vee> alpha_i; the orbit of the basis under the
    generated group is the whole root system.
    """
    frontier = set(rs.simple_roots)
    closed = set(frontier)
    while frontier:
        grown = set()
        for beta in frontier:
            for i, alpha in enumerate(rs.simple_roots):
                k = rs.pairing(beta, i)
                img = tuple(b - k * a for b, a in zip(beta, alpha))
                if img not in closed:
                    closed.add(img)
                    grown.add(img)
        frontier = grown
    return closed


COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
}


# every family at ranks 5 to 8, and the high-rank systems whose builds the benchmarks time
CLOSED = RANK_LE_4 + [(f, r) for f in "ABCD" for r in range(5, 9)] + [
    ("A", 20), ("B", 12), ("C", 12), ("D", 16), ("A", 40)]


@pytest.mark.parametrize("family,rank", CLOSED)
def test_positive_counts_and_weyl_closure(family, rank):
    # the root-string closure carries each root's pairing row; the Weyl orbit and the
    # standard counts are computed without it
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == COUNTS[family](rank)
    assert rs.all_roots == weyl_closure(rs)


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_root_invariants(family, rank):
    rs = pipeline(family, rank).rs
    for r in rs.all_roots:
        assert any(r)
        signs = {c > 0 for c in r if c != 0}
        assert len(signs) == 1  # all nonnegative or all nonpositive
        assert negate(r) in rs.all_roots
        assert rs.is_positive(r) != rs.is_positive(negate(r))
    assert set(rs.positive_roots) | {negate(r) for r in rs.positive_roots} == rs.all_roots
    assert len(rs.all_roots) == 2 * len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", [("D", 8), ("A", 20), ("A", 40)])
def test_all_roots_is_presized_as_the_merged_union(family, rank):
    # a set built one root at a time grows its table 4x per resize: at these ranks it
    # ends with twice the slots of the union of the positive and the negative roots
    rs = build_root_system(family, rank)
    union = frozenset(rs.positive_roots) | frozenset(map(negate, rs.positive_roots))
    assert rs.all_roots == union and sys.getsizeof(rs.all_roots) == sys.getsizeof(union)


def test_a1_is_a_single_pair():
    rs = build_root_system("A", 1)
    assert rs.all_roots == {(1,), (-1,)}
    assert rs.positive_roots == ((1,),)


def test_a2_positive_roots_match_eps_enumeration():
    # eps_i - eps_j for 1 <= i < j <= 3 is alpha_i + ... + alpha_{j-1}
    expected = set()
    for i, j in itertools.combinations(range(1, 4), 2):
        expected.add(tuple(1 if i <= s < j else 0 for s in (1, 2)))
    rs = pipeline("A", 2).rs
    assert set(rs.positive_roots) == expected == {(1, 0), (0, 1), (1, 1)}


def test_b2_has_four_positive_roots():
    rs = pipeline("B", 2).rs
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_lex_compare_examples():
    rs = pipeline("A", 2).rs
    a1, a2, theta = (1, 0), (0, 1), (1, 1)
    assert lex_compare(rs, a1, a2) == 1
    assert lex_compare(rs, theta, a1) == 1
    assert lex_compare(rs, a1, a1) == 0
    with pytest.raises(DimensionError):
        lex_compare(rs, (1, 0, 0), a1)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_lex_order_agrees_with_positivity_of_difference(family, rank):
    rs = pipeline(family, rank).rs
    for g in rs.all_roots:
        for d in rs.all_roots:
            diff = tuple(x - y for x, y in zip(g, d))
            if diff in rs.all_roots:
                assert (lex_compare(rs, g, d) == 1) == rs.is_positive(diff)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_lex_total_order_properties(family, rank):
    rs = pipeline(family, rank).rs
    roots = sorted(rs.all_roots)
    for a in roots:
        for b in roots:
            ab = lex_compare(rs, a, b)
            assert ab == -lex_compare(rs, b, a)
            assert (ab == 0) == (a == b)
    # transitivity via consistency with the sorted order
    for a, b, c in itertools.combinations(roots, 3):
        if lex_compare(rs, a, b) == -1 and lex_compare(rs, b, c) == -1:
            assert lex_compare(rs, a, c) == -1


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_positive_roots_sorted_ascending(family, rank):
    rs = pipeline(family, rank).rs
    pos = rs.positive_roots
    for a, b in zip(pos, pos[1:]):
        assert lex_compare(rs, a, b) == -1


def test_abs_root():
    rs = pipeline("A", 2).rs
    theta = (1, 1)
    assert abs_root(rs, (1, 0)) == (1, 0)
    assert abs_root(rs, (-1, -1)) == theta
    images = [abs_root(rs, r) for r in rs.all_roots]
    assert sorted(images) == sorted(list(rs.positive_roots) * 2)
    with pytest.raises(DomainError):
        abs_root(rs, (2, 0))


def test_root_sum_examples():
    rs = pipeline("A", 2).rs
    a1, a2 = (1, 0), (0, 1)
    assert root_sum(rs, a1, a2) == (1, 1)
    assert root_sum(rs, a1, a1) is None  # 2a never a root
    assert root_sum(rs, a1, negate(a1)) is None  # zero is not a root
    with pytest.raises(DomainError):
        root_sum(rs, (5, 5), a1)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3)])
def test_sum_table_is_exact_and_symmetric(family, rank):
    rs = pipeline(family, rank).rs
    for a in rs.all_roots:
        for b in rs.all_roots:
            s = tuple(x + y for x, y in zip(a, b))
            present = (a, b) in rs.sum_table
            assert present == (s in rs.all_roots)
            if present:
                assert rs.sum_table[(a, b)] == s
            assert root_sum(rs, a, b) == root_sum(rs, b, a)


@pytest.mark.parametrize(
    "family,rank",
    [("E", 6), ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("F", 4), ("A", True)],
)
def test_rejects_unsupported_configurations(family, rank):
    with pytest.raises(ConfigurationError):
        build_root_system(family, rank)


@pytest.mark.parametrize("rank", [2.0, 2.5, "2", None])
def test_a_rank_that_is_no_integer_is_refused(rank):
    with pytest.raises(ConfigurationError):
        build_root_system("A", rank)


def test_zero_is_not_positive():
    assert build_root_system("A", 2).is_positive((0, 0)) is False


def test_one_system_per_family_and_rank():
    rs = build_root_system("a", 4)
    assert rs is build_root_system("A", 4)
    assert build_root_system("A", np.int64(3)) is build_root_system("A", 3)
    assert type(build_root_system("A", np.int64(3)).rank) is int
    chevalley_constants(rs)
    before = chevalley_constants.cache_info().currsize
    for _ in range(10):
        chevalley_constants(build_root_system("A", 4))
    assert chevalley_constants.cache_info().currsize == before
