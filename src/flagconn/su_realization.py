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

An explicit signed basis isomorphism phi is computed once and held as one table
of matrix-unit entries (b, p, q, value): E_alpha maps to a signed e_pq, H_i to
e_ii - e_(i+1)(i+1). to_matrix scatters the table; the cross-check reads it as
entry lists keyed by basis pair and matrix entry, with no dense image: sum_o
ad[x, o, y] phi[o] with [phi x, phi y] by e_pq e_rs = delta_qr e_ps, the Killing gram
with 2(n+1) tr(phi x phi y) by tr(e_pq e_rs) = delta_qr delta_ps, both exactly and on
the keys of either side; U with w on chained (p, r, q) of the transported m basis,
whose entries are those of E_alpha and E_-alpha.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .chevalley import (
    LieElement,
    StructureConstants,
    _adjoint,
    build_m_basis,
    chevalley_constants,
    killing_gram,
)
from .connection import _entries
from .errors import ConfigurationError, DimensionError, DomainError
from .metric import MetricSpec
from .oracle import CheckReport, DEFAULT_TOLERANCE, _residual_report
from .rootsys import Coords, RootSystem, _check_roots, build_root_system


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
        raise DimensionError(f"expected {n} coordinates, got {len(root)}")
    support = [s for s, c in enumerate(root, start=1) if c != 0]
    signs = {root[s - 1] for s in support}
    contiguous = support == list(range(support[0], support[0] + len(support))) if support else False
    if signs not in ({1}, {-1}) or not contiguous:
        raise DomainError(f"{root} is not a root of A_{n}")
    lo, hi = support[0], support[-1] + 1
    return EpsRoot(lo, hi) if root[support[0] - 1] > 0 else EpsRoot(hi, lo)


def _eps_entries(n: int) -> np.ndarray:
    """The 0-based entries (p, q), p < q, of the positive eps roots in positive_eps_roots order."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return np.array(positive_eps_roots(n)).T - 1


def su_m_basis(n: int) -> list[np.ndarray]:
    """Tangent basis matrices, two per positive root, in root order."""
    return list(su_from_coords(n, np.eye(n * (n + 1))))


def su_killing(n: int, x: np.ndarray, y: np.ndarray) -> complex:
    """Killing form of sl(n+1): 2(n+1) tr(xy), broadcast over leading axes."""
    return 2 * (n + 1) * np.trace(x @ y, axis1=-2, axis2=-1)


def m_component(x: np.ndarray, r: EpsRoot) -> np.ndarray:
    """Projection of a tangent matrix onto the 2-dimensional block of r, over the last two
    axes: leading axes are kept."""
    out = np.zeros_like(x)
    out[..., r.i - 1, r.j - 1] = x[..., r.i - 1, r.j - 1]
    out[..., r.j - 1, r.i - 1] = x[..., r.j - 1, r.i - 1]
    return out


def su_from_coords(n: int, coords: np.ndarray) -> np.ndarray:
    """Expand real coordinates over su_m_basis into a matrix, keeping leading axes: the block
    coordinates (u, v) of eps_p - eps_q, p < q, give u + iv at (p, q) and -u + iv at (q, p)."""
    p, q = _eps_entries(n)
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1:] != (2 * len(p),):
        raise DimensionError(f"expected {2 * len(p)} coordinates, got {coords.shape}")
    u, v = coords[..., ::2], 1j * coords[..., 1::2]
    out = np.zeros(coords.shape[:-1] + (n + 1, n + 1), dtype=complex)
    out[..., p, q], out[..., q, p] = u + v, v - u
    return out


def su_to_coords(n: int, x: np.ndarray) -> np.ndarray:
    """Read tangent coordinates off the strict upper triangle, keeping leading axes."""
    p, q = _eps_entries(n)
    x = np.asarray(x)
    if x.shape[-2:] != (n + 1, n + 1):
        raise DimensionError(f"expected matrices of shape {(n + 1, n + 1)}, got {x.shape}")
    entries = x[..., p, q]
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
    signs: MappingProxyType[Coords, int]
    coord_signs: np.ndarray

    @functools.cached_property
    def _images(self) -> np.ndarray:
        """The images of the full Chevalley basis as matrix-unit entries (b, p, q, value), one
        per column of a read-only int64 array: b in KillingForm label order, (p, q) 0-based.
        H_h maps to e_hh - e_(h+1)(h+1), two entries per h; then, for alpha = eps_p - eps_q
        in rs.positive_roots order, E_alpha to signs[alpha] e_pq; then E_-alpha to
        signs[alpha] e_qp. Built once per alignment object, so a replaced one builds its own."""
        p, q = _eps_entries(self.n)  # listed in rs.positive_roots order
        s = np.fromiter(map(self.signs.__getitem__, self.rs.positive_roots), np.int64, len(p))
        h, e = np.arange(self.n), self.n + np.arange(len(p))
        table = np.concatenate([[h, h, h, np.ones_like(h)], [h, h + 1, h + 1, -np.ones_like(h)],
                                [e, p, q, s], [e + len(p), q, p, s]], axis=1)
        table.flags.writeable = False  # shared through the cache of build_alignment
        return table

    def to_matrix(self, x: LieElement) -> np.ndarray:
        """Image of an abstract element: the basis images weighted by its coefficients."""
        if x.rank != self.n:
            raise DimensionError(f"expected an element of rank {self.n}, got rank {x.rank}")
        _check_roots(self.rs, *x.roots)
        b, p, q, value = self._images
        weights = np.array([*x.cartan, *(dict.fromkeys(self.rs.roots, 0) | x.roots).values()])
        out = np.zeros((self.n + 1, self.n + 1), dtype=complex)
        np.add.at(out, (p, q), weights[b] * value)
        return out

    def transport(self, coords: np.ndarray) -> np.ndarray:
        """Map abstract m coordinates to matrix-basis m coordinates."""
        return self.coord_signs * np.asarray(coords, dtype=float)


@functools.lru_cache(maxsize=None)
def build_alignment(n: int) -> SuAlignment:
    """Compute the signed basis isomorphism for A_n once.

    Signs are seeded as +1 on the simple roots and propagated by height: a root
    eps_i - eps_j, j > i + 1, is beta + s with beta = eps_{i+1} - eps_j and the simple
    s = eps_i - eps_{i+1}, so that E_alpha maps onto signs[alpha] times e_ij.
    """
    rs = build_root_system("A", n)
    sc = chevalley_constants(rs)
    signs: dict[Coords, int] = {}
    for alpha in sorted(rs.positive_roots, key=sum):
        i, j = simple_to_eps(n, alpha)
        if j == i + 1:
            signs[alpha] = 1
            continue
        beta, simple = eps_to_simple(n, EpsRoot(i + 1, j)), rs.simple_roots[i - 1]
        n_abs = sc.n(beta, simple)
        if abs(n_abs) != 1:
            raise DomainError(f"N({beta}, {simple}) is {n_abs} in su({n + 1}), not +-1")
        # [e_pq, e_rt] = delta_qr e_pt - delta_tp e_rq gives [e_{i+1,j}, e_{i,i+1}] = N' e_ij
        # with N' = -1; bracket preservation: N(beta, s) * signs[alpha] = signs[beta] * N'
        signs[alpha] = -signs[beta] * n_abs
    coord_signs = np.repeat([signs[alpha] for alpha in rs.positive_roots], 2).astype(float)
    coord_signs.flags.writeable = False  # shared through the cache
    return SuAlignment(n=n, rs=rs, signs=MappingProxyType(signs), coord_signs=coord_signs)


def _positive_real(c, what: str) -> float:
    """c as a float if it is a positive, finite real number (a bool is an int, but no number)."""
    x = (float(c) if isinstance(c, numbers.Real) and not isinstance(c, bool)
         and abs(c) <= sys.float_info.max else np.nan)  # past it, float(c) overflows
    if not (x > 0 and np.isfinite(x)):
        raise ConfigurationError(f"{what} must be a positive, finite real number, got {c!r}")
    return x


def _validated_coeffs(n: int, coeffs) -> np.ndarray:
    """The symmetric coefficient matrix; its diagonal of ones only meets zero entries."""
    out = np.ones((n + 1, n + 1))
    for r in positive_eps_roots(n):
        if r not in coeffs:  # an EpsRoot equals and hashes like its bare (i, j)
            raise ConfigurationError(f"missing coefficient for eps root {tuple(r)}")
        c = _positive_real(coeffs[r], f"coefficient for eps root {tuple(r)}")
        out[r.i - 1, r.j - 1] = out[r.j - 1, r.i - 1] = c
    return out


def _weights(c: np.ndarray, p, r, q) -> np.ndarray:
    """w[p, r, q] = (c_rq - c_pr) / (2 c_pq), the difference first, on index triples of the
    weights mu of the standard representation: c[p, q] is the coefficient of the root block
    of mu_p - mu_q (eps_p - eps_q here), 1 where that is no root, met only by zeros."""
    return (c[r, q] - c[p, r]) / (2 * c[p, q])


def u_sun(n: int, coeffs, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The symmetric term U for SU(n+1)/T as one weighted sum over index triples.

    ``coeffs`` maps positive eps roots (EpsRoot or bare (i, j) tuples) to
    positive reals; ``x`` and ``y`` are coordinates over su_m_basis(n) whose
    leading axes broadcast. The weights w (module docstring) take the
    difference first, so equal coefficients give an exact zero.
    """
    if n < 2:
        raise DomainError("u_sun requires n >= 2")
    w = _weights(_validated_coeffs(n, coeffs), *np.ix_(*[np.arange(n + 1)] * 3))
    xm, ym = su_from_coords(n, x), su_from_coords(n, y)
    out = np.einsum("prq,...pr,...rq->...pq", w, xm, ym)
    out += np.einsum("prq,...pr,...rq->...pq", w, ym, xm)
    return su_to_coords(n, out)


def su3_coefficients(c1: float, c2: float, c3: float) -> tuple[float, float, float]:
    """The three scalar weights of the SU(3)/T formula."""
    c1, c2, c3 = (_positive_real(c, "metric coefficient") for c in (c1, c2, c3))
    return (c3 - c2) / (2 * c1), (c3 - c1) / (2 * c2), (c2 - c1) / (2 * c3)


def u_su3(c1: float, c2: float, c3: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """U for SU(3)/T with the block labels m1 = (1,2), m2 = (1,3), m3 = (2,3); leading axes
    of ``x`` and ``y`` broadcast, as in u_sun."""
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


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) with left[a] == right[b], grouped by a: one sorted join."""
    order = np.argsort(right)
    ranked = right[order]
    lo, hi = (np.searchsorted(ranked, left, side) for side in ("left", "right"))
    a = np.repeat(np.arange(len(left)), hi - lo)
    return a, order[np.arange(len(a)) + np.repeat(lo - np.cumsum(hi - lo) + hi - lo, hi - lo)]


def _products(b, p, q, value) -> tuple[np.ndarray, ...]:
    """Every product of two matrix-unit entries (b, p, q, value), e_pq e_rs = delta_qr e_ps:
    columns (x, y, p, r, s, value) of the entry (p, s) of the matrix of x times that of y."""
    a, c = _join(q, p)
    return b[a], b[c], p[a], q[a], q[c], value[a] * value[c]


def _net(shape: tuple[int, ...], *parts) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The sum of the values of (index columns, values) parts per key, sorted row-major."""
    keys = np.concatenate([np.ravel_multi_index(index, shape) for index, _ in parts])
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], np.concatenate([values for _, values in parts])[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return np.unravel_index(keys[first], shape), np.add.reduceat(values, first)


def check_su_crosscheck(
    rs: RootSystem,
    sc: StructureConstants,
    spec: MetricSpec,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[CheckReport]:
    """Bracket-table, Killing-form and U agreement through the alignment, compared on
    entry lists. Bracket and Killing witnesses are full-basis pairs (x, y), indexed like
    ``killing_gram(rs, sc).labels``; U witnesses are m-basis pairs."""
    if rs.family != "A":
        raise ConfigurationError("the special unitary cross-check requires family A")
    spec.validate(rs)
    n, npos = rs.rank, len(rs.positive_roots)
    al = build_alignment(n)
    kf = killing_gram(rs, sc)
    _, _, (x, o, y, v) = _adjoint(rs, sc)
    b, up, uq, uv = al._images
    a, c = _join(o, b)  # phi([x, y]) = sum_o ad[x, o, y] phi[o]
    xy, yx, p, _, s, prod = _products(b, up, uq, uv)  # phi_x phi_y: [x, y] gets +, [y, x] gets -
    (bx, by, _, _), brackets = _net(kf.gram.shape + (n + 1,) * 2,
                                    ((x[a], y[a], up[c], uq[c]), v[a] * uv[c]),
                                    ((xy, yx, p, s), -prod), ((yx, xy, p, s), prod))
    gram, trace = np.nonzero(kf.gram), p == s  # B(x, y) against 2(n+1) tr(phi_x phi_y)
    (kx, ky), killing = _net(kf.gram.shape, (gram, kf.gram[gram]),
                             ((xy[trace], yx[trace]), -2 * (n + 1) * prod[trace]))
    reports = [_residual_report("su-bracket-tables", np.abs(brackets, dtype=float), 0.0, (bx, by)),
               _residual_report("su-killing-form", np.abs(killing, dtype=float), 0.0, (kx, ky))]

    if n >= 2:
        c = _validated_coeffs(n, dict(zip(positive_eps_roots(n), map(spec.c, rs.positive_roots))))
        # the transported basis, coord_signs times e_pq - e_qp (U_alpha) and i(e_pq + e_qp)
        # (V_alpha), on the E_alpha entries at (p, q), p < q, then the E_-alpha ones at (q, p)
        unit = np.tile([[1, 1j], [-1, 1j]], npos) * al.coord_signs
        products = _products(np.tile(np.arange(2 * npos), 2), np.repeat(up[2 * n:], 2),
                             np.repeat(uq[2 * n:], 2), unit.ravel())
        i, j, p, r, q, prod = (column[products[2] < products[4]] for column in products)
        u_pq = _weights(c, p, r, q) * (prod.real + prod.imag)  # = U(e_i, e_j)_pq = U(e_j, e_i)_pq
        ci, cj, ck, u, _ = _entries(sc, build_m_basis(rs), spec)
        # coordinate k is Re U_pq (k even) or Im U_pq at the E_alpha entry k // 2; each
        # product is real or imaginary, so it meets one of the two
        at = (up[2 * n + ck // 2], uq[2 * n + ck // 2], ck % 2)
        keys, im = (2 * npos,) * 2 + (n + 1,) * 2 + (2,), prod.imag != 0
        (ui, uj, *_), residual = _net(keys, ((ci, cj, *at), -u * al.coord_signs[ck]),
                                      ((i, j, p, q, im), u_pq), ((j, i, p, q, im), u_pq))
        reports.append(_residual_report("su-u-term", np.abs(residual), tolerance, (ui, uj)))
    return reports
