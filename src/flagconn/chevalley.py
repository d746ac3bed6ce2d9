"""Chevalley basis structure constants, Killing form, and the compact m basis.

Structure constants are exact integers with |N(a, b)| = p + 1 (p the down
string length), signs fixed by making N positive on extraspecial pairs with
respect to the lexicographic order. They are computed on the rows of the
system's root-triple table, which feed the m-bracket entries, the traces of
the Killing form and the adjoint table of the su(n+1) check. Real tangent
vectors live in the span of

    U_a = E_a - E_{-a},    V_a = i (E_a + E_{-a}),    a positive,

listed in lexicographically ascending order of a; coefficients of such
elements satisfy the reality condition coeff(E_{-a}) = -conj(coeff(E_a)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DimensionError, DomainError, RepresentationError
from .rootsys import (
    Coords,
    RootSystem,
    _check_roots,
    _exact,
    _one_system,
    _pair_keys,
    add_roots,
    negate,
)


@dataclass
class LieElement:
    """Sparse element of the complexified algebra: Cartan part + root part."""

    rank: int
    cartan: np.ndarray
    roots: dict[Coords, complex] = field(default_factory=dict)

    def __post_init__(self):
        self.cartan = np.asarray(self.cartan, dtype=complex)
        if self.cartan.shape != (self.rank,):
            raise DimensionError(f"cartan part must have length {self.rank}")
        self.roots = {r: complex(c) for r, c in self.roots.items() if c != 0}

    @classmethod
    def zero(cls, rank: int) -> "LieElement":
        return cls(rank, np.zeros(rank, dtype=complex), {})

    @classmethod
    def root_vector(cls, rank: int, root: Coords, coeff: complex = 1.0) -> "LieElement":
        return cls(rank, np.zeros(rank, dtype=complex), {root: coeff})

    def __add__(self, other: "LieElement") -> "LieElement":
        if other.rank != self.rank:
            raise DimensionError("rank mismatch")
        roots = self.roots | {r: self.roots.get(r, 0.0) + c for r, c in other.roots.items()}
        return LieElement(self.rank, self.cartan + other.cartan, roots)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "LieElement":
        return LieElement(
            self.rank, scalar * self.cartan, {r: scalar * c for r, c in self.roots.items()}
        )

    def is_zero(self) -> bool:
        return not self.cartan.any() and not any(self.roots.values())


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Exact bracket data for a Chevalley basis of the given root system.

    ``n_rows`` holds N(a, b) on each row of ``rs.triples``. The mirror ``n_coeff`` maps
    the root pairs of those rows, in their order, to the same constants; it is built
    on its first read, by ``n``, ``bracket`` and ``z_term`` (so by ``u_root_pair`` and
    ``su_realization.build_alignment``). The mirror ``coroot_table`` maps each root of
    ``rs.roots`` to its row of ``rs.coroots``; it is built on its first read, by ``bracket``.
    """

    rs: RootSystem
    n_rows: np.ndarray  # read-only int64 N(a, b) on each row (a, b, s) of rs.triples

    @functools.cached_property
    def n_coeff(self) -> MappingProxyType[tuple[Coords, Coords], int]:
        return MappingProxyType(dict(zip(_pair_keys(self.rs), self.n_rows.tolist())))

    @functools.cached_property
    def coroot_table(self) -> MappingProxyType[Coords, tuple[int, ...]]:
        return MappingProxyType(dict(zip(self.rs.roots, map(tuple, self.rs.coroots.tolist()))))

    def n(self, alpha: Coords, beta: Coords) -> int:
        """N(alpha, beta); defined exactly when alpha, beta, alpha+beta are roots."""
        try:
            return self.n_coeff[(alpha, beta)]
        except KeyError:
            raise DomainError(f"N is undefined for {alpha}, {beta}") from None


def root_string_p(rs: RootSystem, alpha: Coords, beta: Coords) -> int:
    """Largest k >= 0 with beta - k*alpha a root, for roots alpha and beta."""
    _check_roots(rs, alpha, beta)  # a zero alpha never ends the string
    p = 0
    while tuple(b - (p + 1) * a for a, b in zip(alpha, beta)) in rs.all_roots:
        p += 1
    return p


@functools.lru_cache(maxsize=None)
def chevalley_constants(rs: RootSystem) -> StructureConstants:
    """Compute all N(alpha, beta) with the extraspecial-pair sign convention.

    Anchors: for each non-simple positive root rho, the special pair
    (g, d), g < d, g + d = rho with lexicographically least g receives
    N(g, d) = p + 1 > 0, and the Jacobi identity gives the other positive
    pairs. Every other constant follows from N(-a, -b) = -N(a, b),
    N(b, a) = -N(a, b) and the coroot identity on triples summing to zero:
    one sign rule, computed once as factors of each row of the root-triple
    table, which the Jacobi step reads row by row and the fill of n_rows on
    every row at once; all arithmetic stays in exact integers.
    """
    npos, norm, norms = len(rs.positive_roots), rs.norms, rs.norms.tolist()
    a, b, s = rs.triples
    special: dict[int, list[tuple[int, int]]] = {}
    for g, d, rho in rs.triples[:, (a < b) & (b < npos)].T.tolist():  # positive g < d
        special.setdefault(rho, []).append((g, d))
    positive = [[0] * npos for _ in range(npos)]  # N on positive pairs, antisymmetric

    # the sign rule once, as factors of every row (a, b, s) of the triple table: flip a
    # negative sum, swap a negative first root, then rotate the zero-sum triple (a, -w, -s),
    # w positive, onto (w, s); N on the row is sign * N(u, v) * mult / den on the positive
    # pair (u, v), with mult = den where no rotation is needed
    a, b, s = np.where(flip := s >= npos, (rs.triples + npos) % (2 * npos), rs.triples)
    a, b = np.where(swap := a >= npos, b, a), np.where(swap, a, b)
    mixed = b >= npos
    sign, den = np.where(flip ^ swap ^ mixed, -1, 1), norm[a]
    u, v, mult = np.where(mixed, [b % npos, s, norm[s]], [a, b, den])
    a, b, total = rs.triples.tolist()
    rows, rule = dict(zip(zip(a, b), range(len(a)))), [x.tolist() for x in (sign, u, v, mult, den)]

    def n_at(a: int, b: int) -> int:  # N(roots[a], roots[b]) by the factors of its row
        i, (sign, u, v, mult, den) = rows[a, b], rule
        n = sign[i] * positive[u[i]][v[i]]
        return n if mult[i] == den[i] else _exact(n * mult[i], den[i])

    # by height, so that n_at reads only the positive pairs of lower sums
    for rho in sorted(special, key=lambda k: sum(rs.roots[k])):
        (a0, b0), *pairs = special[rho]  # in row order: g ascending
        n0 = root_string_p(rs, rs.roots[a0], rs.roots[b0]) + 1
        positive[a0][b0], positive[b0][a0] = n0, -n0
        for g, d in pairs:
            # Jacobi identity for (E_a0, E_b0, E_{-g}) read on the E_d component
            acc = sum(pm * n_at(x, g + npos) * n_at(total[rows[x, g + npos]], y)
                      for pm, x, y in ((1, b0, a0), (-1, a0, b0)) if (x, g + npos) in rows)
            n = _exact(-norms[rho] * _exact(-acc, n0), norms[d])
            positive[g][d], positive[d][g] = n, -n

    # the same factors on every row at once
    n = _exact(sign * np.array(positive, dtype=np.int64)[u, v] * mult, den)
    n.flags.writeable = False  # shared through the cache
    return StructureConstants(rs, n)


def bracket(sc: StructureConstants, x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket [x, y] in the Chevalley basis."""
    rs = sc.rs
    if x.rank != rs.rank or y.rank != rs.rank:
        raise DimensionError("elements do not match the root system rank")
    cartan = np.zeros(rs.rank, dtype=complex)
    roots: dict[Coords, complex] = {}

    for i in range(rs.rank):
        if x.cartan[i] != 0:
            for r, c in y.roots.items():
                roots[r] = roots.get(r, 0.0) + x.cartan[i] * c * rs.pairing(r, i)
        if y.cartan[i] != 0:
            for r, c in x.roots.items():
                roots[r] = roots.get(r, 0.0) - y.cartan[i] * c * rs.pairing(r, i)

    n_coeff, all_roots, coroots = sc.n_coeff, rs.all_roots, sc.coroot_table  # read once
    for r1, c1 in x.roots.items():
        for r2, c2 in y.roots.items():
            s = add_roots(r1, r2)
            if s in all_roots:
                roots[s] = roots.get(s, 0.0) + c1 * c2 * n_coeff[(r1, r2)]
            elif not any(s):
                coeff = c1 * c2
                for i, h in enumerate(coroots[r1]):
                    cartan[i] += coeff * h
    return LieElement(rs.rank, cartan, roots)


# ---------------------------------------------------------------------------
# Killing form


@dataclass(frozen=True, eq=False)
class KillingForm:
    """Trace form B(x, y) = tr(ad x . ad y) tabulated on the full basis.

    Basis order: H_1..H_l, then E_a for positive a ascending, then E_{-a}.
    """

    rs: RootSystem
    labels: tuple[tuple, ...]
    index: MappingProxyType[tuple, int]
    gram: np.ndarray

    def e_pair(self, alpha: Coords) -> int:
        """B(E_alpha, E_{-alpha})."""
        _check_roots(self.rs, alpha)
        return int(self.gram[self.index[("E", alpha)], self.index[("E", negate(alpha))]])

    def value(self, x: LieElement, y: LieElement) -> complex:
        """Complex-bilinear evaluation of B on sparse elements."""
        if x.rank != self.rs.rank or y.rank != self.rs.rank:
            raise DimensionError("elements do not match the root system rank")
        out = 0.0 + 0.0j
        for i in range(self.rs.rank):
            if x.cartan[i] == 0:
                continue
            for j in range(self.rs.rank):
                out += x.cartan[i] * y.cartan[j] * self.gram[i, j]
        for r, c in x.roots.items():
            c2 = y.roots.get(negate(r))
            if c2:
                out += c * c2 * self.gram[self.index[("E", r)], self.index[("E", negate(r))]]
        return out


def _basis(rs: RootSystem, sc: StructureConstants) -> tuple[tuple, dict, np.ndarray, np.ndarray]:
    """Full-basis labels in KillingForm order, their index, and per root a of rs.roots
    act[a] = <a, alpha_h^vee> ([H_h, E_a] = act E_a) and the coroot H_a = [E_a, E_{-a}]."""
    _one_system("root system and the structure constants", rs, sc.rs)
    labels = tuple([("H", i) for i in range(rs.rank)] + [("E", r) for r in rs.roots])
    act = rs.coords @ np.array(rs.pairing_matrix)
    return labels, {lab: k for k, lab in enumerate(labels)}, act, rs.coroots


@functools.lru_cache(maxsize=None)
def _adjoint(rs: RootSystem, sc: StructureConstants) -> tuple[tuple, dict, np.ndarray]:
    """Full-basis labels in KillingForm order, their index, and the nonzero entries
    of ad as one read-only int64 array of columns (x, out, in, value): ``value`` is
    the coefficient of ``out`` in [x, in]. Root-root brackets come first, one per row
    of the root-triple table; then [H_i, E_a], [E_a, H_i] and [E_a, E_{-a}] = H_a.
    Only the su(n+1) cross-check reads it."""
    labels, index, act, coroots = _basis(rs, sc)
    rank, npos = rs.rank, len(rs.positive_roots)
    a, b, s = rs.triples + rank  # H_i sits at index i, E of rs.roots[k] at rank + k
    h, e = np.indices(act.shape)[::-1]
    e, minus = e + rank, (e + npos) % (2 * npos) + rank
    entries = np.concatenate([np.stack([a, s, b, sc.n_rows])] + [
        np.stack(column).reshape(4, -1) for column in
        ((h, e, e, act), (e, e, h, -act), (e, h, minus, coroots))], axis=1)
    entries = entries[:, entries[3] != 0]
    entries.flags.writeable = False  # shared through the cache
    return labels, index, entries


@functools.lru_cache(maxsize=None)
def killing_gram(rs: RootSystem, sc: StructureConstants) -> KillingForm:
    """Killing form B(b_x, b_y) = sum over (o, i) of ad[x, o, i] ad[y, i, o], exact in
    integers, on the slot pairs known by construction: ad H_h is diagonal on the E's, so
    the H-H block is act.T @ act, and by weight B pairs E_a only with E_{-a}. B(E_a, E_{-a})
    sums N(a, b) N(-a, a + b) over the triple rows (a, b, a + b), with N read off n_rows
    on the row (-a, a + b, b): the rows are sorted by a·|R| + b, row-major in rs.roots order,
    so one argsort of the keys (-a)·|R| + (a + b) finds it, and the slots
    [E_a, H_h] against [E_{-a}, E_a] = H_{-a} and [E_a, E_{-a}] = H_a against [E_{-a}, H_h]."""
    labels, index, act, coroots = _basis(rs, sc)
    rank, nroots = rs.rank, len(rs.roots)
    minus = (np.arange(nroots) + nroots // 2) % nroots  # -rs.roots[e] is rs.roots[minus[e]]
    a, b, s = rs.triples
    partner = np.empty_like(sc.n_rows)  # N on the row (-a, s, b) of each row (a, b, s)
    partner[np.argsort(minus[a] * nroots + s)] = sc.n_rows
    trace = -(act * coroots[minus] + coroots * act[minus]).sum(axis=1)
    np.add.at(trace, a, sc.n_rows * partner)
    gram = np.zeros((rank + nroots,) * 2, dtype=np.int64)
    gram[:rank, :rank] = act.T @ act
    gram[np.arange(rank, rank + nroots), minus + rank] = trace
    gram.flags.writeable = False  # shared through the cache
    return KillingForm(rs=rs, labels=labels, index=MappingProxyType(index), gram=gram)


# ---------------------------------------------------------------------------
# The real tangent basis


@dataclass(frozen=True, eq=False)
class MBasis:
    """Ordered real basis U_a, V_a of the reductive complement m."""

    rs: RootSystem
    labels: tuple[tuple[Coords, str], ...]
    index: MappingProxyType[tuple[Coords, str], int]

    @property
    def dim(self) -> int:
        return len(self.labels)

    def u_vec(self, alpha: Coords) -> LieElement:
        self._check_positive(alpha)
        return LieElement(self.rs.rank, np.zeros(self.rs.rank), {alpha: 1.0, negate(alpha): -1.0})

    def v_vec(self, alpha: Coords) -> LieElement:
        self._check_positive(alpha)
        return LieElement(self.rs.rank, np.zeros(self.rs.rank), {alpha: 1.0j, negate(alpha): 1.0j})

    def basis_vector(self, k: int) -> np.ndarray:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < self.dim:
            raise DomainError(f"basis index must be an integer in [0, {self.dim}), got {k!r}")
        out = np.zeros(self.dim)
        out[k] = 1.0
        return out

    def to_lie(self, x: np.ndarray) -> LieElement:
        """Expand real m coordinates into a sparse complex element."""
        x = _coords(self, x)
        roots: dict[Coords, complex] = {}
        for k, alpha in enumerate(self.rs.positive_roots):
            u, v = x[2 * k], x[2 * k + 1]
            if u or v:
                roots[alpha] = complex(u, v)
                roots[negate(alpha)] = complex(-u, v)
        return LieElement(self.rs.rank, np.zeros(self.rs.rank), roots)

    def _check_positive(self, alpha: Coords) -> None:
        if (alpha, "U") not in self.index:
            raise DomainError(f"{alpha} is not a positive root of {self.rs.family}{self.rs.rank}")


@functools.lru_cache(maxsize=None)
def build_m_basis(rs: RootSystem) -> MBasis:
    """The 2|R+| basis elements, ordered by lexicographically ascending root."""
    labels = tuple((alpha, kind) for alpha in rs.positive_roots for kind in "UV")
    index = MappingProxyType({lab: k for k, lab in enumerate(labels)})  # shared through the cache
    return MBasis(rs=rs, labels=labels, index=index)


def project_root_space(x: LieElement, gamma: Coords) -> complex:
    """Coefficient of E_gamma in x."""
    return x.roots.get(gamma, 0.0 + 0.0j)


_FLOAT = np.dtype(float)


def _coords(mb: MBasis, x) -> np.ndarray:
    """x as real m coordinates: complex ones are refused, never cast to their real part."""
    x = np.asarray(x)
    if x.dtype is not _FLOAT:  # a float array passes uncast, the hot path of a point query
        if x.dtype.kind == "c":
            raise DomainError(f"m coordinates must be real, got dtype {x.dtype}")
        x = x.astype(float)
    if x.shape != (mb.dim,):
        raise DimensionError(f"expected coordinate length {mb.dim}, got {x.shape}")
    return x


def project_m(mb: MBasis, x: LieElement) -> np.ndarray:
    """Drop the Cartan part and express the root part over the m basis.

    Requires the reality condition coeff(E_{-a}) = -conj(coeff(E_a)) within
    1e-9; violations raise RepresentationError.
    """
    if x.rank != mb.rs.rank:
        raise DimensionError("element does not match the basis rank")
    _check_roots(mb.rs, *x.roots)
    out = np.zeros(mb.dim)
    for k, alpha in enumerate(mb.rs.positive_roots):
        a = x.roots.get(alpha, 0.0 + 0.0j)
        b = x.roots.get(negate(alpha), 0.0 + 0.0j)
        if abs(b + a.conjugate()) > 1e-9:
            raise RepresentationError(
                f"reality condition violated on the {alpha} root pair by "
                f"{abs(b + a.conjugate()):.3e}"
            )
        out[2 * k] = a.real
        out[2 * k + 1] = a.imag
    return out


@functools.lru_cache(maxsize=None)
def m_bracket_entries(
    sc: StructureConstants, mb: MBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries T[i, j, k] = t of the m-bracket, as arrays (i, j, k, t)
    sorted row-major by (i, j, k).

    Read off the rows (g, d, s) of the root-triple table whose sum s = g + d is
    a positive root: such a pair brackets the E_g, E_d parts of e_i, e_j into
    N(g, d) E_s. E_g has coefficient sign(g) in U_|g|
    and i in V_|g|, and the real and imaginary parts of the E_s coefficient
    are the U_s and V_s coordinates, so each such pair gives exactly four
    entries, the even-parity choices of U or V on the blocks (|g|, |d|, |g+d|).
    No two pairs share an entry: g + d = g' + d' with g' = +-g, d' = +-d forces
    g' = g, d' = d. The keys are closed under every permutation of (i, j, k):
    a permuted root triple (g, d, -(g+d)) is again one, and it gives the four
    even-parity choices on the permuted blocks.
    """
    rs = sc.rs
    _one_system("m basis and the structure constants", mb.rs, rs)
    npos = len(rs.positive_roots)
    keep = rs.triples[2] < npos  # g + d positive
    # root k < npos and its negative, root npos + k, are on block k
    (hg, hd, _), (p, q, r) = np.divmod(rs.triples[:, keep], npos)
    n = sc.n_rows[keep]
    sg, sd = 1 - 2 * hg, 1 - 2 * hd  # +1 for a positive root, -1 for a negative one
    i = np.concatenate([2 * p, 2 * p, 2 * p + 1, 2 * p + 1])
    j = np.concatenate([2 * q, 2 * q + 1, 2 * q, 2 * q + 1])
    k = np.concatenate([2 * r, 2 * r + 1, 2 * r + 1, 2 * r])  # UU, UV, VU, VV
    t = np.concatenate([sg * sd * n, sg * n, sd * n, -n]).astype(float)
    order = np.argsort((i * mb.dim + j) * mb.dim + k)  # the keys are unique: row-major (i, j, k)
    i, j, k, t = i[order], j[order], k[order], t[order]
    for a in (i, j, k, t):
        a.flags.writeable = False  # shared through the cache
    return i, j, k, t


def _scatter(mb: MBasis, i, j, k, values) -> np.ndarray:
    out = np.zeros((mb.dim,) * 3)
    out[i, j, k] = values
    return out


def _contract(mb: MBasis, i, j, k, weights, x, y) -> np.ndarray:
    """weights * x_i * y_j summed into coordinate k over the entries, x and y checked first;
    float also with no entries (A1), where bincount counts in integers."""
    x, y = _coords(mb, x), _coords(mb, y)
    w = x[i]  # weights * x_i * y_j, in that order of products, with no temporary
    w *= weights
    w *= y[j]
    return np.bincount(k, weights=w, minlength=mb.dim).astype(float, copy=False)


def m_bracket_table(sc: StructureConstants, mb: MBasis) -> np.ndarray:
    """Dense table T[i, j, :] = m coordinates of [e_i, e_j]_m, scattered from
    m_bracket_entries on each call; no pipeline stage reads it."""
    return _scatter(mb, *m_bracket_entries(sc, mb))
