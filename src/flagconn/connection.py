"""Closed-form Levi-Civita connection on the tangent space of G/T.

The connection splits as nabla_X Y = (1/2)[X, Y]_m + U(X, Y). The symmetric
term U is evaluated in closed form: on single root components it is

    U(X_g, Y_d) = (c_|g| - c_|d|) / (2 c_|g+d|) * [Y_d, X_g]   if g+d is a root,
    0 otherwise.

Over the real basis of m, each nonzero entry T[i, j, k] of the m-bracket
table comes from a single root pair (g, d), up to negating both, with e_i in
m^|g|, e_j in m^|d| and e_k in m^|g+d| (chevalley.m_bracket_entries). The
formula therefore weights the table entry by entry:

    U(e_i, e_j)_k = (c_|i| - c_|j|) / (2 c_|k|) * (-T[i, j, k]),

where |i| is the positive root whose block holds e_i. Per system it caches the bracket
keys i, j, k (m_bracket_entries' own arrays), |i|, |j|, |k|, -T and T / 2 (_closed_form_table);
per metric, one lookup on the spec's values (_entries) finds U and gamma = T / 2 + U, computed
on a new metric from the checked coefficients (metric._checked). A point query sums them
against x_i y_j (chevalley._contract), and assemble_tensor holds them in a ConnectionTensor,
dense only when its gamma is read. The oracle module checks the u weights entry
by entry against the defining linear condition of U and shares only the bracket
entries and their contraction with this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .chevalley import (
    LieElement,
    MBasis,
    StructureConstants,
    _contract,
    _scatter,
    m_bracket_entries,
    project_m,
)
from .errors import DomainError
from .metric import MetricSpec, _checked, _per_metric
from .rootsys import Coords, RootSystem, _check_roots, abs_root, add_roots, negate


@dataclass(frozen=True, eq=False)
class ConnectionTensor:
    """Coefficients gamma[i, j, k] of nabla_{e_i} e_j over the m basis.

    One from assemble_tensor or cli.read_tensor holds ``entries``, arrays (i, j, k,
    value), and scatters its read-only dense ``gamma`` on first read. One built from a
    dense ``gamma``, also through dataclasses.replace, is read through its nonzeros.
    """

    mbasis: MBasis
    gamma: np.ndarray = field(repr=False)  # a repr must not scatter a dim^3 array
    entries = None  # not a field, so dataclasses.replace(tensor, gamma=...) drops it

    @classmethod
    def _from_entries(cls, mb: MBasis, *entries) -> "ConnectionTensor":
        tensor = object.__new__(cls)
        vars(tensor).update(mbasis=mb, entries=entries)
        return tensor

    def __getattr__(self, name):  # not found otherwise: gamma of a tensor before its first read
        if name != "gamma" or self.entries is None:
            raise AttributeError(name)
        gamma = vars(self)["gamma"] = _scatter(self.mbasis, *self.entries)
        gamma.flags.writeable = False  # a write would drift from the entries
        return gamma

    def _nonzeros(self):
        """The entries, or the nonzeros of the dense gamma as it reads now."""
        if self.entries is not None:
            return self.entries
        index = np.nonzero(self.gamma)
        return *index, self.gamma[index]


def canonical_pair(rs: RootSystem, alpha: Coords, beta: Coords) -> tuple[Coords, Coords]:
    """The unique reordering/negation (a1, a2) of (alpha, beta) with |a1| < a2.

    Follows the constructive selection: normalize the second entry to be
    positive, swap if needed, then negate both if the first entry is still
    below -a2. Undefined when alpha = +-beta (the four candidates collapse).
    """
    _check_roots(rs, alpha, beta)
    if alpha == beta or alpha == negate(beta):
        raise DomainError("canonical pair is undefined for alpha = +-beta")
    a1, a2 = alpha, beta
    if not rs.is_positive(a2):
        a1, a2 = negate(a1), negate(a2)
    if not a1 < a2:
        a1, a2 = a2, a1
    if negate(a2) < a1:
        return a1, a2
    return negate(a2), negate(a1)


def u_root_pair(
    sc: StructureConstants,
    spec: MetricSpec,
    x_coeff: complex,
    y_coeff: complex,
    gamma: Coords,
    delta: Coords,
) -> LieElement:
    """U on single root components X = x_coeff E_gamma, Y = y_coeff E_delta; the metric is
    judged by the coefficient rule first, also where the bracket vanishes."""
    rs = sc.rs
    _check_roots(rs, gamma, delta)
    spec.validate(rs)
    s = add_roots(gamma, delta)
    if s not in rs.all_roots:  # includes delta = -gamma, zero is not a root
        return LieElement.zero(rs.rank)
    coeff = (spec.c(abs_root(rs, gamma)) - spec.c(abs_root(rs, delta))) / (
        2.0 * spec.c(abs_root(rs, s))
    )
    # [Y_delta, X_gamma] = y x N(delta, gamma) E_{gamma+delta}
    return LieElement.root_vector(rs.rank, s, coeff * y_coeff * x_coeff * sc.n(delta, gamma))


def z_term(
    sc: StructureConstants,
    mb: MBasis,
    x: np.ndarray,
    y: np.ndarray,
    alpha: Coords,
    beta: Coords,
) -> np.ndarray:
    """The four-bracket combination Z for the root pair, projected to m.

    Z = [Y_b, X_a] + [X_b, Y_a] + [Y_{-b}, X_{-a}] + [X_{-b}, Y_{-a}]. Cartan
    contributions (only possible when beta = -alpha) are dropped, which is
    the projection to m.
    """
    rs = sc.rs
    _check_roots(rs, alpha, beta)
    dx, dy = mb.to_lie(x).roots, mb.to_lie(y).roots
    comps: dict[Coords, complex] = {}
    for r1, r2 in ((beta, alpha), (negate(beta), negate(alpha))):
        s = add_roots(r1, r2)
        if s not in rs.all_roots:
            continue
        w = dy.get(r1, 0.0) * dx.get(r2, 0.0) + dx.get(r1, 0.0) * dy.get(r2, 0.0)
        if w:
            comps[s] = w * sc.n_coeff[(r1, r2)]
    return project_m(mb, LieElement(rs.rank, np.zeros(rs.rank), comps))


@functools.lru_cache(maxsize=None)
def _closed_form_table(sc: StructureConstants, mb: MBasis):
    """Per system: the bracket keys i, j, k, their blocks (|i|, |j|, |k|), -T and T / 2."""
    i, j, k, t = m_bracket_entries(sc, mb)
    table = np.stack((i, j, k)) // 2, -t, 0.5 * t
    for a in table:
        a.flags.writeable = False  # shared through the cache
    return i, j, k, *table


@functools.lru_cache(maxsize=1, typed=True)  # typed: 3 + 0j must miss a cached 3.0
def _gamma_entries(sc: StructureConstants, mb: MBasis, *values):
    """(i, j, k, u = U(e_i, e_j)_k, gamma = T[i, j, k] / 2 + u) on the m-bracket entries."""
    i, j, k, blocks, minus_t, half_t = _closed_form_table(sc, mb)
    c_i, c_j, c_k = _checked(sc.rs, *values)[blocks]
    # U(e_i, e_j) = (c_i - c_j) / (2 c_k) [e_j, e_i]_m, and [e_j, e_i]_m = -T[i, j]; the
    # difference first gives equal coefficients exactly zero, and c_k + c_k is 2 c_k exactly
    u = c_i - c_j
    u /= c_k + c_k
    u *= minus_t
    gamma = half_t + u
    u.flags.writeable = gamma.flags.writeable = False  # shared through the cache
    return i, j, k, u, gamma


def _entries(sc: StructureConstants, mb: MBasis, spec: MetricSpec):
    return _per_metric(_gamma_entries, sc.rs, spec._values(sc.rs), sc, mb)


def u_bilinear(
    sc: StructureConstants,
    mb: MBasis,
    spec: MetricSpec,
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """The symmetric term U(x, y) over the m basis, summed over the table entries."""
    i, j, k, u, _ = _entries(sc, mb, spec)
    return _contract(mb, i, j, k, u, x, y)


def nabla(
    sc: StructureConstants,
    mb: MBasis,
    spec: MetricSpec,
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Covariant derivative nabla_x y at the base point, in m coordinates."""
    i, j, k, _, gamma = _entries(sc, mb, spec)
    return _contract(mb, i, j, k, gamma, x, y)


def assemble_tensor(sc: StructureConstants, mb: MBasis, spec: MetricSpec) -> ConnectionTensor:
    """nabla over all basis pairs: Γ's entries on the m-bracket keys."""
    i, j, k, _, gamma = _entries(sc, mb, spec)
    return ConnectionTensor._from_entries(mb, i, j, k, gamma)
