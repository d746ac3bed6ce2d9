"""Classical root systems in simple-root coordinates.

A root is a tuple of integers: its coefficients over the simple-root basis,
numbered as in Bourbaki. A lattice vector is *positive* when its first
nonzero coordinate is positive; this is the lexicographic order used for
sorting and for selecting canonical pairs downstream. Systems are generated
by root-string closure from the Cartan pairing, not from hard-coded tables,
so the standard positive-root counts act as an independent cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ConfigurationError, DimensionError, DomainError

Coords = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

# scaled squared lengths (alpha_i, alpha_i); only ratios ever matter
_LONG, _SHORT = 4, 2


def negate(root: Coords) -> Coords:
    return tuple(-c for c in root)


def add_roots(a: Coords, b: Coords) -> Coords:
    return tuple(x + y for x, y in zip(a, b))


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
    order; ``all_roots`` is the disjoint union with the negatives;
    ``sum_table`` maps a pair of roots to their sum exactly when the sum is
    again a root.
    """

    family: str
    rank: int
    simple_roots: tuple[Coords, ...]
    positive_roots: tuple[Coords, ...]
    all_roots: frozenset[Coords]
    sum_table: dict[tuple[Coords, Coords], Coords]
    pairing_matrix: tuple[tuple[int, ...], ...]
    norm_table: dict[Coords, int]

    def is_positive(self, v: Coords) -> bool:
        """Lexicographic positivity of a lattice vector."""
        for c in v:
            if c != 0:
                return c > 0
        return False

    def pairing(self, v: Coords, i: int) -> int:
        """<v, alpha_i^vee> for a lattice vector v."""
        col = self.pairing_matrix
        return sum(v[j] * col[j][i] for j in range(self.rank))

    def norm2(self, root: Coords) -> int:
        """Scaled squared length (root, root); exact integer."""
        return self.norm_table[root]


def _generate_positive(pairing, simple: tuple[Coords, ...]) -> set[Coords]:
    positive: set[Coords] = set(simple)
    frontier = list(simple)

    def pair(v: Coords, i: int) -> int:
        return sum(v[j] * pairing[j][i] for j in range(len(v)))

    while frontier:
        grown: list[Coords] = []
        for beta in frontier:
            for i, alpha in enumerate(simple):
                # down-string length p; the whole down string of a positive
                # root along a simple root stays positive, so searching the
                # positive set is enough
                p = 0
                cur = beta
                while True:
                    cur = tuple(c - a for c, a in zip(cur, alpha))
                    if cur in positive:
                        p += 1
                    else:
                        break
                if p - pair(beta, i) >= 1:
                    cand = add_roots(beta, alpha)
                    if cand not in positive:
                        positive.add(cand)
                        grown.append(cand)
        frontier = grown
    return positive


def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system of the given classical family and rank, one object per (family, rank)."""
    fam = str(family).upper()
    if fam not in FAMILIES:
        raise ConfigurationError(f"unsupported family {family!r}; expected one of {FAMILIES}")
    # a bool is an int, and ("A", True) == ("A", 1) as a cache key
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < _MIN_RANK[fam]:
        raise ConfigurationError(f"family {fam} requires rank >= {_MIN_RANK[fam]}, got {rank}")
    return _root_system(fam, rank)


@functools.lru_cache(maxsize=None)
def _root_system(fam: str, rank: int) -> RootSystem:
    pairing = _cartan_pairing(fam, rank)
    simple = tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))
    positive = _generate_positive(pairing, simple)
    pos_sorted = tuple(sorted(positive))  # tuple order is the lexicographic order
    all_roots = frozenset(positive) | {negate(r) for r in positive}

    norms = _simple_norms(fam, rank)
    gram = [[pairing[i][j] * norms[j] // 2 for j in range(rank)] for i in range(rank)]
    norm_table: dict[Coords, int] = {}
    for r in all_roots:
        norm_table[r] = sum(gram[i][j] * r[i] * r[j] for i in range(rank) for j in range(rank))

    sum_table: dict[tuple[Coords, Coords], Coords] = {}
    for a in all_roots:
        for b in all_roots:
            s = add_roots(a, b)
            if s in all_roots:
                sum_table[(a, b)] = s

    return RootSystem(
        family=fam,
        rank=rank,
        simple_roots=simple,
        positive_roots=pos_sorted,
        all_roots=all_roots,
        sum_table=sum_table,
        pairing_matrix=pairing,
        norm_table=norm_table,
    )


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
    if alpha not in rs.all_roots or beta not in rs.all_roots:
        raise DomainError(f"arguments must be roots of {rs.family}{rs.rank}")
    return rs.sum_table.get((alpha, beta))
