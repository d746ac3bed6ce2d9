"""Independent matrix realization of su(n+1) and its tangent-space algebra.

Roots are written as index pairs (i, j), i != j, standing for eps_i - eps_j
with 1-based indices; the pair is positive exactly when i < j, and
eps_i - eps_j = alpha_i + ... + alpha_{j-1} over the simple roots. The real
tangent basis consists of e_ij - e_ji and i(e_ij + e_ji) for i < j, ordered
compatibly with the abstract lexicographic order (larger first index comes
first; ties by second index).

Everything here is built from matrix units and the metric coefficients
only, so the module is an independent cross-check of the abstract pipeline.
Expanding the commutators of matrix units, U on SU(n+1)/T is one weighted
sum over index triples, with c the symmetric matrix of block coefficients:

    U(x, y)_pq = sum_r w[p, r, q] (x_pr y_rq + y_pr x_rq),
    w[p, r, q] = (c_rq - c_pr) / (2 c_pq).

An explicit signed basis isomorphism phi is computed once; through it the
cross-check compares phi([x, y]) = sum_o ad[x, o, y] phi[o], scattered from
the nonzero abstract adjoint entries, with matrix commutators and the Killing
gram with 2(n+1) tr(xy) on all full-basis pairs, and U on all m pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chevalley import (
    LieElement,
    MBasis,
    StructureConstants,
    _adjoint,
    build_m_basis,
    chevalley_constants,
    killing_gram,
)
from .connection import _u_tensor
from .errors import ConfigurationError, DomainError
from .metric import MetricSpec
from .oracle import CheckReport, DEFAULT_TOLERANCE, _residual_report
from .rootsys import Coords, RootSystem, build_root_system, negate

BRACKET_TOLERANCE = 1e-12


class EpsRoot(NamedTuple):
    """The root eps_i - eps_j of A_n, 1-based indices, positive iff i < j."""

    i: int
    j: int


def _check_indices(n: int, r: EpsRoot) -> None:
    if not (1 <= r.i <= n + 1 and 1 <= r.j <= n + 1) or r.i == r.j:
        raise DomainError(f"invalid eps root indices {tuple(r)} for n = {n}")


def positive_eps_roots(n: int) -> list[EpsRoot]:
    """All eps_i - eps_j with i < j, sorted ascending in the root order."""
    pairs = [EpsRoot(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]
    return sorted(pairs, key=lambda r: (-r.i, r.j))


def eps_to_simple(n: int, r: EpsRoot) -> Coords:
    """Simple-root coordinates of eps_i - eps_j."""
    r = EpsRoot(*r)
    _check_indices(n, r)
    lo, hi, sign = (r.i, r.j, 1) if r.i < r.j else (r.j, r.i, -1)
    return tuple(sign if lo <= s < hi else 0 for s in range(1, n + 1))


def simple_to_eps(n: int, root: Coords) -> EpsRoot:
    """Inverse of eps_to_simple."""
    if len(root) != n:
        raise DomainError(f"expected {n} coordinates, got {len(root)}")
    support = [s for s, c in enumerate(root, start=1) if c != 0]
    signs = {root[s - 1] for s in support}
    contiguous = support == list(range(support[0], support[0] + len(support))) if support else False
    if signs not in ({1}, {-1}) or not contiguous:
        raise DomainError(f"{root} is not a root of A_{n}")
    lo, hi = support[0], support[-1] + 1
    return EpsRoot(lo, hi) if root[support[0] - 1] > 0 else EpsRoot(hi, lo)


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


def su_m_basis(n: int) -> list[np.ndarray]:
    """Tangent basis matrices, two per positive root, in root order."""
    if n < 1:
        raise DomainError("n must be at least 1")
    out = []
    for r in positive_eps_roots(n):
        e_ij, e_ji = matrix_unit(n, r.i, r.j), matrix_unit(n, r.j, r.i)
        out.append(e_ij - e_ji)
        out.append(1.0j * (e_ij + e_ji))
    return out


def su_killing(n: int, x: np.ndarray, y: np.ndarray) -> complex:
    """Killing form of sl(n+1): 2(n+1) tr(xy), broadcast over leading axes."""
    return 2 * (n + 1) * np.trace(x @ y, axis1=-2, axis2=-1)


def m_component(x: np.ndarray, r: EpsRoot) -> np.ndarray:
    """Projection of a tangent matrix onto the 2-dimensional block of r."""
    out = np.zeros_like(x)
    out[r.i - 1, r.j - 1] = x[r.i - 1, r.j - 1]
    out[r.j - 1, r.i - 1] = x[r.j - 1, r.i - 1]
    return out


def su_from_coords(n: int, coords: np.ndarray) -> np.ndarray:
    """Expand real coordinates over su_m_basis into a matrix, keeping leading axes."""
    basis = np.stack(su_m_basis(n))
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1:] != (len(basis),):
        raise DomainError(f"expected {len(basis)} coordinates, got {coords.shape}")
    return np.tensordot(coords, basis, axes=1)


def su_to_coords(n: int, x: np.ndarray) -> np.ndarray:
    """Read tangent coordinates off the strict upper triangle, keeping leading axes."""
    rows, cols = np.array([(r.i - 1, r.j - 1) for r in positive_eps_roots(n)]).T
    entries = np.asarray(x)[..., rows, cols]
    return np.stack([entries.real, entries.imag], axis=-1).reshape(*entries.shape[:-1], -1)


# ---------------------------------------------------------------------------
# Cross-validation against the abstract pipeline


@dataclass(frozen=True, eq=False)
class SuAlignment:
    """Signed isomorphism between the abstract Chevalley model and su(n+1).

    ``signs[alpha]`` scales E_alpha onto the matrix unit of its eps pair;
    the induced map on m is coordinatewise multiplication by ``coord_signs``.
    """

    n: int
    rs: RootSystem
    sc: StructureConstants
    mb: MBasis
    signs: dict[Coords, int]
    coord_signs: np.ndarray

    def to_matrix(self, x: LieElement) -> np.ndarray:
        """Image of an abstract element under the isomorphism."""
        out = np.zeros((self.n + 1, self.n + 1), dtype=complex)
        for s in range(self.rs.rank):
            if x.cartan[s]:
                out += x.cartan[s] * (
                    matrix_unit(self.n, s + 1, s + 1) - matrix_unit(self.n, s + 2, s + 2)
                )
        for gamma, c in x.roots.items():
            pos = self.rs.is_positive(gamma)
            alpha = gamma if pos else negate(gamma)
            r = simple_to_eps(self.n, alpha)
            if not pos:
                r = EpsRoot(r.j, r.i)
            out += c * self.signs[alpha] * matrix_unit(self.n, r.i, r.j)
        return out

    def transport(self, coords: np.ndarray) -> np.ndarray:
        """Map abstract m coordinates to matrix-basis m coordinates."""
        return self.coord_signs * np.asarray(coords, dtype=float)


def _matrix_n(a: EpsRoot, b: EpsRoot) -> int:
    """Structure constant of [e_a, e_b] on the matrix-unit basis.

    [e_pq, e_rs] = delta(q, r) e_ps - delta(s, p) e_rq; valid when a + b is
    again a root, so at most one delta fires.
    """
    val = 0
    if a.j == b.i and a.i != b.j:
        val += 1
    if b.j == a.i and b.i != a.j:
        val -= 1
    return val


@functools.lru_cache(maxsize=None)
def build_alignment(n: int) -> SuAlignment:
    """Compute the signed basis isomorphism for A_n once.

    Signs are seeded as +1 on the simple roots and propagated along
    height-increasing bracket decompositions, so that E_alpha maps onto
    signs[alpha] times the matrix unit of its eps pair.
    """
    rs = build_root_system("A", n)
    sc = chevalley_constants(rs)
    mb = build_m_basis(rs)
    signs: dict[Coords, int] = {}
    for alpha in sorted(rs.positive_roots, key=sum):
        if sum(alpha) == 1:
            signs[alpha] = 1
            continue
        for s, simple in enumerate(rs.simple_roots):
            beta = tuple(a - b for a, b in zip(alpha, simple))
            if beta in rs.all_roots and rs.is_positive(beta):
                n_abs = sc.n(beta, simple)
                n_mat = _matrix_n(simple_to_eps(n, beta), simple_to_eps(n, simple))
                assert abs(n_abs) == abs(n_mat) == 1
                # bracket preservation: N(beta, s) * lambda_alpha = lambda_beta * N'(beta, s)
                signs[alpha] = signs[beta] * n_mat * n_abs
                break
        else:  # pragma: no cover - every non-simple root splits off a simple one
            raise AssertionError(f"no simple summand found for {alpha}")
    coord_signs = np.zeros(mb.dim)
    for k, alpha in enumerate(rs.positive_roots):
        coord_signs[2 * k] = coord_signs[2 * k + 1] = signs[alpha]
    return SuAlignment(n=n, rs=rs, sc=sc, mb=mb, signs=signs, coord_signs=coord_signs)


def _validated_coeffs(n: int, coeffs) -> np.ndarray:
    """The symmetric coefficient matrix; its diagonal of ones only meets zero entries."""
    out = np.ones((n + 1, n + 1))
    for r in positive_eps_roots(n):
        key = r if r in coeffs else (r.i, r.j)
        if key not in coeffs:
            raise ConfigurationError(f"missing coefficient for eps root {tuple(r)}")
        c = float(coeffs[key])
        if not (c > 0 and np.isfinite(c)):
            raise ConfigurationError(
                f"coefficient for eps root {tuple(r)} must be positive and finite"
            )
        out[r.i - 1, r.j - 1] = out[r.j - 1, r.i - 1] = c
    return out


def u_sun(n: int, coeffs, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The symmetric term U for SU(n+1)/T as one weighted sum over index triples.

    ``coeffs`` maps positive eps roots (EpsRoot or bare (i, j) tuples) to
    positive reals; ``x`` and ``y`` are coordinates over su_m_basis(n) whose
    leading axes broadcast. The weights w (module docstring) take the
    difference first, so equal coefficients give an exact zero.
    """
    if n < 2:
        raise DomainError("u_sun requires n >= 2")
    c = _validated_coeffs(n, coeffs)
    w = (c[None, :, :] - c[:, :, None]) / (2 * c[:, None, :])
    xm, ym = su_from_coords(n, x), su_from_coords(n, y)
    out = np.einsum("prq,...pr,...rq->...pq", w, xm, ym)
    out += np.einsum("prq,...pr,...rq->...pq", w, ym, xm)
    return su_to_coords(n, out)


def su3_coefficients(c1: float, c2: float, c3: float) -> tuple[float, float, float]:
    """The three scalar weights of the SU(3)/T formula."""
    for c in (c1, c2, c3):
        if not (c > 0 and np.isfinite(c)):
            raise ConfigurationError("metric coefficients must be positive and finite")
    return (c3 - c2) / (2 * c1), (c3 - c1) / (2 * c2), (c2 - c1) / (2 * c3)


def u_su3(c1: float, c2: float, c3: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """U for SU(3)/T with the block labels m1 = (1,2), m2 = (1,3), m3 = (2,3)."""
    w1, w2, w3 = su3_coefficients(c1, c2, c3)
    xm, ym = su_from_coords(2, x), su_from_coords(2, y)
    comps = [(m_component(xm, r), m_component(ym, r)) for r in
             (EpsRoot(1, 2), EpsRoot(1, 3), EpsRoot(2, 3))]
    (x1, y1), (x2, y2), (x3, y3) = comps

    def comm(a, b):
        return a @ b - b @ a

    acc = w1 * (comm(x2, y3) + comm(y2, x3))
    acc = acc + w2 * (comm(x1, y3) + comm(y1, x3))
    acc = acc + w3 * (comm(x1, y2) + comm(y1, x2))
    return su_to_coords(2, acc)


def check_su_crosscheck(
    rs: RootSystem,
    sc: StructureConstants,
    spec: MetricSpec,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[CheckReport]:
    """Bracket-table, Killing-form and U agreement through the alignment. Bracket
    and Killing witnesses are full-basis pairs (x, y), indexed like
    ``killing_gram(rs, sc).labels``; U witnesses are m-basis pairs."""
    if rs.family != "A":
        raise ConfigurationError("the special unitary cross-check requires family A")
    spec.validate(rs)
    n = rs.rank
    al = build_alignment(n)
    kf = killing_gram(rs, sc)
    _, _, (x, o, y, v) = _adjoint(rs, sc)
    phi = np.stack([
        al.to_matrix(LieElement(n, np.eye(n)[lab[1]]) if lab[0] == "H"
                     else LieElement.root_vector(n, lab[1]))
        for lab in kf.labels
    ])
    rhs = phi[:, None] @ phi[None, :] - phi[None, :] @ phi[:, None]
    lhs = np.zeros_like(rhs)
    np.add.at(lhs, (x, y), v[:, None, None] * phi[o])  # phi([x, y]) = sum_o ad[x, o, y] phi[o]
    brackets = np.abs(lhs - rhs).max(axis=(-2, -1))
    killing = np.abs(kf.gram - su_killing(n, phi[:, None], phi[None, :]))
    reports = [_residual_report("su-bracket-tables", brackets, BRACKET_TOLERANCE),
               _residual_report("su-killing-form", killing, BRACKET_TOLERANCE)]

    if n >= 2:
        coeffs = {simple_to_eps(n, a): spec.c(a) for a in rs.positive_roots}
        e = np.diag(al.coord_signs)  # row i: the transported basis vector e_i
        got = u_sun(n, coeffs, e[:, None, :], e[None, :, :])
        expected = _u_tensor(sc, al.mb, spec) * al.coord_signs
        residual = np.abs(expected - got).max(axis=-1)
        reports.append(_residual_report("su-u-term", residual, tolerance))
    return reports
