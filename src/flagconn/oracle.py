"""Brute-force reference for U and the Levi-Civita property checkers.

The oracle solves the defining linear condition

    2 g(U(X, Y), Z) = g(X, [Z, Y]_m) + g([Z, X]_m, Y)   for all Z in m

coordinate by coordinate, which is immediate because the Gram matrix is
diagonal on the m basis. It shares only the m-bracket entries with the
closed form and never its weights, so agreement between the two is a
genuine check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chevalley import StructureConstants, _scatter, killing_gram, m_bracket_entries
from .connection import ConnectionTensor, _coords, _u_tensor
from .metric import MetricGram, MetricSpec, build_metric
from .rootsys import RootSystem, abs_root, negate

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
        return {
            "check_name": self.check_name,
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "passed": self.passed,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _report(name: str, residual: float, threshold: float, witness) -> CheckReport:
    return CheckReport(
        check_name=name,
        max_residual=float(residual),
        threshold=float(threshold),
        passed=bool(residual <= threshold),
        witness=witness,
    )


def _residual_report(name: str, residual: np.ndarray, threshold: float) -> CheckReport:
    """Largest residual; witness: first row-major maximum or NaN, None at zero."""
    flat = int(np.argmax(residual))
    worst = residual.flat[flat]
    witness = None if worst == 0 else tuple(int(v) for v in np.unravel_index(flat, residual.shape))
    return _report(name, worst, threshold, witness)


def _oracle_tensor(sc: StructureConstants, gram: MetricGram) -> np.ndarray:
    """U(e_i, e_j)_k solved from the defining condition, for all i, j, k.

    Coordinate k of U(e_i, e_j) is (g(e_i, [e_k, e_j]_m) + g([e_k, e_i]_m, e_j))
    / (2 diag_k), that is (T[k, j, i] diag_i + T[k, i, j] diag_j) / (2 diag_k):
    each entry T[i, j, k] = t lands at (k, j, i) and (j, k, i) with t diag_k.
    """
    i, j, k, t = m_bracket_entries(sc, gram.mbasis)
    d = gram.diagonal
    td = t * d[k]
    u = _scatter(gram.mbasis, k, j, i, td)
    u[j, k, i] += td  # keys are unique within one entry list
    u /= 2.0 * d
    return u


def u_oracle(
    rs: RootSystem,
    sc: StructureConstants,
    gram: MetricGram,
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """U(x, y) solved directly from the defining condition."""
    x, y = _coords(gram.mbasis, x), _coords(gram.mbasis, y)
    return np.einsum("ijk,i,j->k", _oracle_tensor(sc, gram), x, y)


def check_oracle_equivalence(
    rs: RootSystem,
    sc: StructureConstants,
    spec: MetricSpec,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """Compare the closed-form U with the oracle over all basis pairs."""
    gram = build_metric(rs, killing_gram(rs, sc), spec)
    res = _u_tensor(sc, gram.mbasis, spec)
    res -= _oracle_tensor(sc, gram)
    return _residual_report("oracle-equivalence", np.abs(res, out=res), tolerance)


def check_torsion(
    tensor: ConnectionTensor,
    sc: StructureConstants,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """gamma[i,j,:] - gamma[j,i,:] must equal the coordinates of [e_i, e_j]_m."""
    i, j, k, t = m_bracket_entries(sc, tensor.mbasis)
    res = np.subtract(tensor.gamma, tensor.gamma.transpose(1, 0, 2), dtype=float)
    res[i, j, k] -= t
    return _residual_report("torsion", np.abs(res, out=res), tolerance)


def check_metric_compat(
    tensor: ConnectionTensor,
    gram: MetricGram,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckReport:
    """g(nabla_{e_i} e_j, e_k) + g(e_j, nabla_{e_i} e_k) must vanish."""
    weighted = tensor.gamma * gram.diagonal[None, None, :]
    res = weighted + weighted.transpose(0, 2, 1)
    return _residual_report("metric-compatibility", np.abs(res, out=res), tolerance)


def check_lemma2(rs: RootSystem) -> CheckReport:
    """Each ordered root pair (a, b), a != +-b, admits exactly one canonical form.

    Counts, among the four candidates (a,b), (b,a), (-a,-b), (-b,-a), those
    satisfying |first| < second; the check passes only if every count is
    exactly one.
    """
    worst, witness = 0, None
    for a in rs.all_roots:
        for b in rs.all_roots:
            if a == b or a == negate(b):
                continue
            count = sum(rs.is_positive(a2) and abs_root(rs, a1) < a2 for a1, a2 in
                        ((a, b), (b, a), (negate(a), negate(b)), (negate(b), negate(a))))
            if abs(count - 1) > worst:
                worst, witness = abs(count - 1), (a, b)
    return _report("lemma2-uniqueness", float(worst), 0.0, witness)
