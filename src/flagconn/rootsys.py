"""Classical root systems in simple-root coordinates.

A root is a tuple of integers: its coefficients over the simple-root basis,
numbered as in Bourbaki. A lattice vector is *positive* when its first
nonzero coordinate is positive; this is the lexicographic order used for
sorting and for selecting canonical pairs downstream. Systems are generated
by root-string closure from the Cartan pairing, not from hard-coded tables,
so the standard positive-root counts act as an independent cross-check.
One root-triple table per system lists every pair of roots whose sum is a
root as index rows (a, b, s), sorted by a·|R| + b, row-major in ``roots`` order.
The sums are found by keying each root with its int8 coordinate row, read as
one ``np.void`` of ``rank`` bytes, at every rank, one fixed block of rows at a time:
roots lie in [-2, 2] and their sums in [-4, 4], so the key of a sum is exact,
two roots never share one, and a key match is a sum match.

The per-root data is kept as read-only int64 arrays, one row per root of
``roots``: the coordinates, the squared norms and the coroots. The tuple-keyed
dicts ``sum_table`` and ``norm_table`` mirror the triple table and the norms as
public views; each is a cached property, built on its first read, as are
``StructureConstants.n_coeff`` and ``coroot_table``. No library call builds
``sum_table`` or ``norm_table``: ``root_sum``, ``chevalley.bracket`` and
``connection.z_term`` add the roots and test membership in ``all_roots``. The
array pipeline reads only the arrays and never builds a mirror, nor do the B, C
and D CLI jobs (an A job reads N in its su(n+1) alignment).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError

Coords = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

# scaled squared lengths (alpha_i, alpha_i); only ratios ever matter
_LONG, _SHORT = 4, 2


def negate(root: Coords) -> Coords:
    return tuple(map(operator.neg, root))


def add_roots(a: Coords, b: Coords) -> Coords:
    return tuple(map(operator.add, a, b))


def _exact(num, den):
    """num // den for integers or integer arrays; a remainder raises DomainError."""
    out, rem = divmod(num, den)
    if rem.any() if isinstance(rem, np.ndarray) else rem:
        raise DomainError("an exact division left a remainder: the norms are no root system's")
    return out


def _pair_keys(rs: "RootSystem"):
    """The root pairs (roots[a], roots[b]) of the rows of rs.triples, in their order."""
    a, b = rs.triples[:2].tolist()
    return zip(map(rs.roots.__getitem__, a), map(rs.roots.__getitem__, b))


def _cartan_pairing(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Matrix P with P[i][j] = <alpha_i, alpha_j^vee>, Bourbaki numbering."""
    p = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        p[i][i] = 2
    for i in range(rank - 1):
        p[i][i + 1] = p[i + 1][i] = -1
    if family == "B":
        p[rank - 2][rank - 1] = -2  # long simple root against short coroot
    elif family == "C":
        p[rank - 1][rank - 2] = -2
    elif family == "D":
        p[rank - 2][rank - 1] = p[rank - 1][rank - 2] = 0
        p[rank - 3][rank - 1] = p[rank - 1][rank - 3] = -1
    return tuple(tuple(row) for row in p)


def _simple_norms(family: str, rank: int) -> tuple[int, ...]:
    if family == "B":
        return (_LONG,) * (rank - 1) + (_SHORT,)
    if family == "C":
        return (_SHORT,) * (rank - 1) + (_LONG,)
    return (_SHORT,) * rank  # A, D: simply laced


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable root system of classical type A, B, C or D.

    ``positive_roots`` is sorted strictly ascending in the lexicographic
    order; ``all_roots`` is the disjoint union with the negatives; ``triples``
    holds one row (a, b, s) of indices into ``roots`` (the positive roots, then
    their negatives) for each pair of roots whose sum is again a root, sorted by
    a·|R| + b, row-major in ``roots`` order. ``coords``, ``norms`` and
    ``coroots`` hold one row per root of ``roots``. The mirrors ``sum_table``
    (each pair (roots[a], roots[b]) of a row to roots[s], in the order of the
    rows) and ``norm_table`` (each root to its norm, in the order of ``roots``)
    are public views built on their first read; no library call builds them.
    One object per (family, rank) is shared, so its tables are read-only.
    """

    family: str
    rank: int
    simple_roots: tuple[Coords, ...]
    positive_roots: tuple[Coords, ...]
    roots: tuple[Coords, ...]
    all_roots: frozenset[Coords]
    pairing_matrix: tuple[tuple[int, ...], ...]
    triples: np.ndarray  # int64 rows (a, b, s)
    coords: np.ndarray  # int64 coordinates of each root
    norms: np.ndarray  # int64 scaled squared length (root, root); exact
    coroots: np.ndarray  # int64 alpha^vee over H_1..H_l

    @functools.cached_property
    def sum_table(self) -> MappingProxyType[tuple[Coords, Coords], Coords]:
        return MappingProxyType(
            dict(zip(_pair_keys(self), map(self.roots.__getitem__, self.triples[2].tolist()))))

    @functools.cached_property
    def norm_table(self) -> MappingProxyType[Coords, int]:
        return MappingProxyType(dict(zip(self.roots, self.norms.tolist())))

    def is_positive(self, v: Coords) -> bool:
        """Lexicographic positivity of a lattice vector."""
        for c in v:
            if c != 0:
                return c > 0
        return False

    def pairing(self, v: Coords, i: int) -> int:
        """<v, alpha_i^vee> for a lattice vector v; on a root, the eigenvalue of ad H_i."""
        col = self.pairing_matrix
        return sum(v[j] * col[j][i] for j in range(self.rank))


def _generate_positive(pairing, simple: tuple[Coords, ...]) -> set[Coords]:
    """Close the simple roots, the unit vectors, under root strings, height by height.

    Each root carries its pairing row <beta, alpha_j^vee> and its down-string lengths
    p_j, the largest p with beta - p alpha_j a root: alpha_k has row k of the pairing and
    p = 0. beta + alpha_i is a root iff p_i - <beta, alpha_i^vee> >= 1; it has beta's row
    plus row i, and p_i(beta) + 1 along alpha_i, set when beta is met, as every root of
    a height is met before the next height is grown.
    """
    positive, frontier = set(simple), list(zip(simple, pairing))
    down = {beta: [0] * len(simple) for beta in simple}
    while frontier:
        grown: list[tuple[Coords, tuple[int, ...]]] = []
        for beta, row in frontier:
            for i, (p, q) in enumerate(zip(down[beta], row)):
                if p > q:
                    cand = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if cand not in positive:
                        positive.add(cand)
                        down[cand] = [0] * len(simple)
                        grown.append((cand, tuple(map(operator.add, row, pairing[i]))))
                    down[cand][i] = p + 1
        frontier = grown
    return positive


def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system of the given classical family and rank, one object per (family, rank)."""
    fam = str(family).upper()
    if fam not in FAMILIES:
        raise ConfigurationError(f"unsupported family {family!r}; expected one of {FAMILIES}")
    try:  # a numpy integer builds the system of the Python int
        n = operator.index(rank)
    except TypeError:
        n = None
    # a bool is an int, and ("A", True) == ("A", 1) as a cache key
    if n is None or isinstance(rank, bool) or n < _MIN_RANK[fam]:
        raise ConfigurationError(
            f"family {fam} requires an integer rank >= {_MIN_RANK[fam]}, got {rank!r}")
    return _root_system(fam, n)


# root pairs summed per block of the search: its temporaries grow with rank, about
# 65 536·rank bytes of int8 sums (2.6 MB at rank 40) and as many of matched keys
_SEARCH_BLOCK = 1 << 16


@functools.lru_cache(maxsize=None)
def _root_system(fam: str, rank: int) -> RootSystem:
    pairing = _cartan_pairing(fam, rank)
    simple = tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))
    positive = tuple(sorted(_generate_positive(pairing, simple)))  # tuples sort lexicographically
    negatives = tuple(map(negate, positive))
    roots = positive + negatives
    all_roots = frozenset(positive) | frozenset(negatives)  # presized on the merge

    # each root keyed by its int8 coordinate row as one void of rank bytes: roots lie in
    # [-2, 2], their sums in [-4, 4], so a key match is exactly a sum that is a root
    coords = np.array(positive, dtype=np.int64)
    coords = np.concatenate([coords, -coords])  # the negatives follow in the same order
    small = coords.astype(np.int8)
    bytes_key = np.dtype((np.void, rank))
    keys = small.view(bytes_key)[:, 0]
    order = np.argsort(keys)
    ranked = keys[order]
    step = max(1, _SEARCH_BLOCK // len(roots))  # rows per block: its temporaries stay small

    def find(start):  # rows (a, b, s) of the block of pairs from row start on
        k = (small[start:start + step, None] + small).view(bytes_key)[..., 0]
        at = np.minimum(np.searchsorted(ranked, k), len(keys) - 1)
        row, col = np.nonzero(ranked[at] == k)  # row-major in roots order: by a·|R| + b
        return np.array([row + start, col, order[at[row, col]]])

    triples = np.concatenate([find(at) for at in range(0, len(roots), step)], axis=1)

    # |a|^2 sums a_i a_j (alpha_i, alpha_j), with 2 (alpha_i, alpha_j) = P[i][j] |alpha_j|^2
    scaled = coords * np.array(_simple_norms(fam, rank))
    norms = ((coords @ pairing) * scaled).sum(axis=1) // 2
    coroots = _exact(scaled, norms[:, None])
    for array in (triples, coords, norms, coroots):
        array.flags.writeable = False  # shared through the cache

    return RootSystem(
        family=fam,
        rank=rank,
        simple_roots=simple,
        positive_roots=positive,
        roots=roots,
        all_roots=all_roots,
        pairing_matrix=pairing,
        triples=triples,
        coords=coords,
        norms=norms,
        coroots=coroots,
    )


def _check_roots(rs: RootSystem, *roots: Coords) -> None:
    if not rs.all_roots.issuperset(roots):
        raise DomainError(f"arguments must be roots of {rs.family}{rs.rank}")


def _one_system(what: str, a: RootSystem, b: RootSystem) -> None:
    """Refuse objects built on two systems, also when their dimensions agree."""
    if a is not b:
        raise DimensionError(f"the {what} belong to different systems")


def lex_compare(rs: RootSystem, gamma: Coords, delta: Coords) -> int:
    """-1, 0 or 1 as gamma <, =, > delta in the lexicographic order.

    Defined on the whole root lattice: gamma > delta iff the first nonzero
    coordinate of gamma - delta is positive.
    """
    if len(gamma) != rs.rank or len(delta) != rs.rank:
        raise DimensionError(
            f"expected coordinate length {rs.rank}, got {len(gamma)} and {len(delta)}"
        )
    return (gamma > delta) - (gamma < delta)


def abs_root(rs: RootSystem, gamma: Coords) -> Coords:
    """gamma if positive, else -gamma; always a positive root."""
    if gamma not in rs.all_roots:
        raise DomainError(f"{gamma} is not a root of {rs.family}{rs.rank}")
    return gamma if rs.is_positive(gamma) else negate(gamma)


def root_sum(rs: RootSystem, alpha: Coords, beta: Coords) -> Coords | None:
    """alpha + beta when it is a root, else None (zero is never a root)."""
    _check_roots(rs, alpha, beta)
    s = add_roots(alpha, beta)
    return s if s in rs.all_roots else None
