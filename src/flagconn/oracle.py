"""Brute-force reference for U and the Levi-Civita property checkers.

The oracle solves the defining linear condition

    2 g(U(X, Y), Z) = g(X, [Z, Y]_m) + g([Z, X]_m, Y)   for all Z in m

coordinate by coordinate, which is immediate because the Gram matrix is
diagonal on the m basis. It shares only the m-bracket entries and their
contraction against x_i y_j with the closed form, never its weights, so
agreement between the two is a genuine check of the closed form. Both vanish
off the bracket keys, so they are compared entry by entry on those keys, and
so are the torsion and metric residuals of a tensor, without a dense array.
Per system, from a check's first call, it caches where each key's permutations sit
(_transposed) and T / 2 there (_oracle_table); per metric it reads only the Gram diagonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chevalley import (MBasis, StructureConstants, _contract, chevalley_constants, killing_gram,
                        m_bracket_entries)
from .connection import ConnectionTensor, _entries
from .metric import MetricGram, MetricSpec, build_metric
from .rootsys import RootSystem, _one_system, negate

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification pass."""

    check_name: str
    max_residual: float
    threshold: float
    passed: bool
    witness: tuple | None = None

    def to_dict(self) -> dict:
        """The fields in their order, the witness as a list."""
        return dict(vars(self), witness=list(self.witness) if self.witness is not None else None)


def _residual_report(name: str, residual: np.ndarray, threshold: float, keys=None) -> CheckReport:
    """Largest residual; witness: the first maximum or NaN, by row-major position or
    by the entry ``keys`` (arrays of (i, j, k)), None at zero or with nothing to compare."""
    worst, witness = residual.item(n := int(residual.argmax())) if residual.size else 0.0, None
    if worst != 0:
        at = np.unravel_index(n, residual.shape) if keys is None else [a.item(n) for a in keys]
        witness = tuple(map(int, at))
    report = object.__new__(CheckReport)  # frozen: its fields stored at once, not by setattr
    vars(report).update(check_name=name, max_residual=float(worst), threshold=float(threshold),
                        passed=bool(worst <= threshold), witness=witness)
    return report


# the rows of _transposed: the entries (k, j, i), (k, i, j), (j, i, k), (i, k, j) of (i, j, k)
_PERMUTED = ((2, 1, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1))


@functools.lru_cache(maxsize=None)
def _transposed(sc: StructureConstants, mb: MBasis) -> np.ndarray:
    """Rows: positions of the _PERMUTED entries of each bracket entry (i, j, k). The keys
    are sorted and permutation-closed; a miss raises, never gathers a wrong entry."""
    ijk, shape = m_bracket_entries(sc, mb)[:3], (mb.dim,) * 3
    keys = np.ravel_multi_index(ijk, shape)
    want = np.stack([np.ravel_multi_index([ijk[p] for p in perm], shape) for perm in _PERMUTED])
    pos = np.searchsorted(keys, want)
    if not np.array_equal(np.take(keys, pos, mode="clip"), want):
        raise AssertionError("the m-bracket keys are not closed under permutation")
    pos.flags.writeable = False  # shared through the cache
    return pos


def _on_keys(tensor: ConnectionTensor, sc: StructureConstants, row: int):
    """Sorted keys (i, j, k) closed under the permutation of _transposed row ``row``, Γ and
    T on them, and the position of each key's permutation. A tensor from assemble_tensor
    is on the bracket keys; another is read through its nonzeros, merged with them."""
    mb, perm = tensor.mbasis, _PERMUTED[row]
    i, j, k, t = m_bracket_entries(sc, mb)
    if tensor.entries is not None and tensor.entries[0] is i:
        return (i, j, k), tensor.entries[3], t, _transposed(sc, mb)[row]
    *index, values = tensor._nonzeros()
    shape = (mb.dim,) * 3
    bracket, given = np.ravel_multi_index((i, j, k), shape), np.ravel_multi_index(index, shape)
    keys = np.concatenate([bracket, given, np.ravel_multi_index([index[p] for p in perm], shape)])
    # sorted and deduplicated without np.unique, which imports numpy.ma (1.4 MB) on first use
    keys = keys[np.argsort(keys, kind="stable")]
    keys = keys[np.diff(keys, prepend=-1) > 0]
    # float also for an integer or bool dense gamma, so the checks subtract as floats
    gamma, t_on = np.zeros(len(keys), np.promote_types(values.dtype, float)), np.zeros(len(keys))
    gamma[np.searchsorted(keys, given)] = values
    t_on[np.searchsorted(keys, bracket)] = t
    at = np.unravel_index(keys, shape)
    return at, gamma, t_on, np.searchsorted(keys, np.ravel_multi_index([at[p] for p in perm], shape))


@functools.lru_cache(maxsize=None)
def _oracle_table(sc: StructureConstants, mb: MBasis) -> np.ndarray:
    """Per system: rows T[k, j, i] / 2 and T[k, i, j] / 2 at each bracket key (i, j, k)."""
    table = 0.5 * m_bracket_entries(sc, mb)[3][_transposed(sc, mb)[:2]]
    table.flags.writeable = False  # shared through the cache
    return table


def _oracle_entries(sc: StructureConstants, gram: MetricGram) -> np.ndarray:
    """U(e_i, e_j)_k solved from the defining condition, on each bracket entry (i, j, k).

    Coordinate k of U(e_i, e_j) is (g(e_i, [e_k, e_j]_m) + g([e_k, e_i]_m, e_j))
    / (2 d_k), that is (T[k, j, i] / 2 d_i + T[k, i, j] / 2 d_j) / d_k. It reads
    only T and the Gram diagonal d, and vanishes off the bracket keys.
    """
    (i, j, k, _), d = m_bracket_entries(sc, gram.mbasis), gram.diagonal
    h_kji, h_kij = _oracle_table(sc, gram.mbasis)
    u, d_j = d[i], d[j]  # the products and the quotient in place, in the order above
    u *= h_kji
    d_j *= h_kij
    u += d_j
    u /= d[k]
    return u


def u_oracle(
    rs: RootSystem,
    sc: StructureConstants,
    gram: MetricGram,
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """U(x, y) solved from the defining condition: _oracle_entries summed against x_i y_j."""
    _one_system("root system and the structure constants", rs, sc.rs)
    i, j, k, _ = m_bracket_entries(sc, gram.mbasis)
    return _contract(gram.mbasis, i, j, k, _oracle_entries(sc, gram), x, y)


def check_oracle_equivalence(
    rs: RootSystem,
    sc: StructureConstants,
    spec: MetricSpec,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """Compare the closed-form U with the oracle entry by entry on the bracket keys,
    off which both vanish; a witness is the (i, j, k) of an entry."""
    gram = build_metric(rs, killing_gram(rs, sc), spec)
    i, j, k, u, _ = _entries(sc, gram.mbasis, spec)
    res = u - _oracle_entries(sc, gram)
    return _residual_report("oracle-equivalence", np.abs(res, out=res), tolerance, (i, j, k))


def check_torsion(
    tensor: ConnectionTensor,
    sc: StructureConstants,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """gamma[i,j,:] - gamma[j,i,:] must equal the coordinates of [e_i, e_j]_m; compared on
    the keys where either side can be nonzero, a witness is the (i, j, k) of an entry."""
    keys, gamma, t, ji = _on_keys(tensor, sc, 2)
    res = np.abs(gamma - gamma[ji] - t)
    return _residual_report("torsion", res, tolerance, keys)


def check_metric_compat(
    tensor: ConnectionTensor,
    gram: MetricGram,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """g(nabla_{e_i} e_j, e_k) + g(e_j, nabla_{e_i} e_k) must vanish; compared on the keys
    where either term can be nonzero, a witness is the (i, j, k) of an entry."""
    _one_system("tensor and the Gram matrix", tensor.mbasis.rs, gram.mbasis.rs)
    keys, gamma, _, ik = _on_keys(tensor, chevalley_constants(gram.mbasis.rs), 3)
    weighted = gamma * gram.diagonal[keys[2]]
    res = np.abs(weighted + weighted[ik])
    return _residual_report("metric-compatibility", res, tolerance, keys)


def check_lemma2(rs: RootSystem) -> CheckReport:
    """Each ordered root pair (a, b), a != +-b, admits exactly one canonical form.

    Counts, among the four candidates (a,b), (b,a), (-a,-b), (-b,-a), those
    satisfying |first| < second; the check passes only if every count is
    exactly one. With the roots ranked once, the tests compare integers over all
    pairs at once, reading only ``rs.all_roots`` and ``rs.is_positive``.
    """
    roots = list(rs.all_roots)  # pairs row-major: the order of a loop over all_roots twice
    n = len(roots)
    rank = np.argsort(sorted(range(n), key=roots.__getitem__))
    rank = np.stack((rank, n - 1 - rank))  # of r and of -r: negation reverses the order
    positive = np.array([[rs.is_positive(s) for s in (r, negate(r))] for r in roots]).T
    abs_rank = np.where(positive, rank, rank[::-1])  # the rank of |r| and of |-r|
    a, b = np.ogrid[:n, :n]
    # (a, b) and (b, a) in row 0 of rank and positive, (-a, -b) and (-b, -a) in row 1
    count = sum(positive[s, y] & (abs_rank[s, x] < rank[s, y])
                for s in (0, 1) for x, y in ((a, b), (b, a)))
    dev = np.where((a == b) | (rank[0, a] == rank[1, b]), 0, np.abs(count - 1))
    x, y = np.unravel_index(dev.argmax(), dev.shape)  # the first worst pair
    witness = (roots[x], roots[y]) if dev[x, y] else None
    return CheckReport("lemma2-uniqueness", float(dev[x, y]), 0.0, not dev[x, y], witness)
