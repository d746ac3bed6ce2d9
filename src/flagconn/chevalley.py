"""Chevalley basis structure constants, Killing form, and the compact m basis.

Structure constants are exact integers with |N(a, b)| = p + 1 (p the down
string length), signs fixed by making N positive on extraspecial pairs with
respect to the lexicographic order. The Killing form is computed from
adjoint traces rather than closed-form tables, so it doubles as a
self-check. Real tangent vectors live in the span of

    U_a = E_a - E_{-a},    V_a = i (E_a + E_{-a}),    a positive,

listed in lexicographically ascending order of a; coefficients of such
elements satisfy the reality condition coeff(E_{-a}) = -conj(coeff(E_a)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError, RepresentationError
from .rootsys import Coords, RootSystem, add_roots, negate


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
        roots = dict(self.roots)
        for r, c in other.roots.items():
            roots[r] = roots.get(r, 0.0) + c
        return LieElement(self.rank, self.cartan + other.cartan, roots)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "LieElement":
        return LieElement(
            self.rank, scalar * self.cartan, {r: scalar * c for r, c in self.roots.items()}
        )

    def is_zero(self, tol: float = 0.0) -> bool:
        return np.all(np.abs(self.cartan) <= tol) and all(
            abs(c) <= tol for c in self.roots.values()
        )


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Exact bracket data for a Chevalley basis of the given root system."""

    rs: RootSystem
    n_coeff: dict[tuple[Coords, Coords], int]
    coroot_table: dict[Coords, tuple[int, ...]]

    def n(self, alpha: Coords, beta: Coords) -> int:
        """N(alpha, beta); defined exactly when alpha, beta, alpha+beta are roots."""
        try:
            return self.n_coeff[(alpha, beta)]
        except KeyError:
            raise DomainError(f"N is undefined for {alpha}, {beta}") from None

    def cartan_action(self, i: int, alpha: Coords) -> int:
        """<alpha, alpha_i^vee>: eigenvalue of ad H_i on the alpha root space."""
        return self.rs.pairing(alpha, i)

    def coroot(self, alpha: Coords) -> tuple[int, ...]:
        """Coordinates of alpha^vee over the simple coroots H_1..H_l."""
        return self.coroot_table[alpha]


def root_string_p(rs: RootSystem, alpha: Coords, beta: Coords) -> int:
    """Largest k >= 0 with beta - k*alpha a root."""
    p, cur = 0, beta
    while True:
        cur = add_roots(cur, negate(alpha))
        if cur in rs.all_roots:
            p += 1
        else:
            return p


@functools.lru_cache(maxsize=None)
def chevalley_constants(rs: RootSystem) -> StructureConstants:
    """Compute all N(alpha, beta) with the extraspecial-pair sign convention.

    Anchors: for each non-simple positive root rho, the special pair
    (g, d), g < d, g + d = rho with lexicographically least g receives
    N(g, d) = p + 1 > 0. Every other constant follows from antisymmetry,
    N(-a, -b) = -N(a, b), the coroot identity on triples summing to zero,
    and the Jacobi identity; all arithmetic stays in exact integers.
    """
    pos = rs.positive_roots
    is_pos = rs.is_positive

    special: dict[Coords, list[tuple[Coords, Coords]]] = {}
    for rho in pos:
        pairs = [
            (g, rs.sum_table[(rho, negate(g))])
            for g in pos
            if (rho, negate(g)) in rs.sum_table
            and is_pos(rs.sum_table[(rho, negate(g))])
            and g < rs.sum_table[(rho, negate(g))]
        ]
        if pairs:
            special[rho] = sorted(pairs)

    table: dict[tuple[Coords, Coords], int] = {}

    def resolve(a: Coords, b: Coords) -> int:
        s = add_roots(a, b)
        if not is_pos(s):
            return -resolve(negate(a), negate(b))
        if is_pos(a) and is_pos(b):
            return table[(a, b)] if a < b else -table[(b, a)]
        if not is_pos(a):
            return -resolve(b, a)
        # a positive, b negative, s positive: rotate the zero-sum triple
        # (a, b, -s) onto the positive pair (-b, s), whose sum is a
        val = resolve(negate(b), s)
        out = -Fraction(rs.norm2(s), rs.norm2(a)) * val
        assert out.denominator == 1
        return int(out)

    for rho in sorted(pos, key=sum):  # by height: recursion reaches only lower sums
        if rho not in special:
            continue
        pairs = special[rho]
        a0, b0 = pairs[0]
        table[(a0, b0)] = root_string_p(rs, a0, b0) + 1
        for g, d in pairs[1:]:
            # Jacobi identity for (E_a0, E_b0, E_{-g}) read on the E_d component
            acc = 0
            if add_roots(b0, negate(g)) in rs.all_roots:
                acc += resolve(b0, negate(g)) * resolve(add_roots(b0, negate(g)), a0)
            if add_roots(a0, negate(g)) in rs.all_roots:
                acc += resolve(negate(g), a0) * resolve(add_roots(a0, negate(g)), b0)
            n_anchor = table[(a0, b0)]
            assert acc % n_anchor == 0
            n_rho_negg = -acc // n_anchor
            val = -Fraction(rs.norm2(rho), rs.norm2(d)) * n_rho_negg
            assert val.denominator == 1
            table[(g, d)] = int(val)

    n_coeff = {(a, b): resolve(a, b) for (a, b) in rs.sum_table}

    coroot_table: dict[Coords, tuple[int, ...]] = {}
    norms = [rs.norm2(s) for s in rs.simple_roots]
    for r in rs.all_roots:
        cr = []
        for i in range(rs.rank):
            c = Fraction(r[i] * norms[i], rs.norm2(r))
            assert c.denominator == 1
            cr.append(int(c))
        coroot_table[r] = tuple(cr)

    return StructureConstants(rs=rs, n_coeff=n_coeff, coroot_table=coroot_table)


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
                roots[r] = roots.get(r, 0.0) + x.cartan[i] * c * sc.cartan_action(i, r)
        if y.cartan[i] != 0:
            for r, c in x.roots.items():
                roots[r] = roots.get(r, 0.0) - y.cartan[i] * c * sc.cartan_action(i, r)

    for r1, c1 in x.roots.items():
        for r2, c2 in y.roots.items():
            s = add_roots(r1, r2)
            if s in rs.all_roots:
                roots[s] = roots.get(s, 0.0) + c1 * c2 * sc.n_coeff[(r1, r2)]
            elif not any(s):
                coeff = c1 * c2
                for i, h in enumerate(sc.coroot(r1)):
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
    index: dict[tuple, int]
    gram: np.ndarray

    def e_pair(self, alpha: Coords) -> int:
        """B(E_alpha, E_{-alpha})."""
        return int(self.gram[self.index[("E", alpha)], self.index[("E", negate(alpha))]])

    def value(self, x: LieElement, y: LieElement) -> complex:
        """Complex-bilinear evaluation of B on sparse elements."""
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


def _adjoint(rs: RootSystem, sc: StructureConstants) -> tuple[tuple, dict, np.ndarray]:
    """Full-basis labels in KillingForm order, their index, and the nonzero
    entries of ad as one int64 array of columns (x, out, in, value): ``value``
    is the coefficient of ``out`` in [x, in]. Root-root brackets are read off
    ``rs.sum_table``; one pass over the roots adds [H_i, E_a], [E_a, H_i] and
    [E_a, E_{-a}] = H_a. Not memoized."""
    roots = list(rs.positive_roots) + [negate(r) for r in rs.positive_roots]
    labels = [("H", i) for i in range(rs.rank)] + [("E", r) for r in roots]
    index = {lab: k for k, lab in enumerate(labels)}
    e = {r: index[("E", r)] for r in roots}  # H_i sits at index i
    rows = [(e[a], e[s], e[b], sc.n_coeff[(a, b)]) for (a, b), s in rs.sum_table.items()]
    for a in roots:
        for i, h in enumerate(sc.coroot(a)):
            act = sc.cartan_action(i, a)
            rows += [(i, e[a], e[a], act), (e[a], e[a], i, -act), (e[a], i, e[negate(a)], h)]
    entries = np.array(rows, dtype=np.int64).T
    return tuple(labels), index, entries[:, entries[3] != 0]


@functools.lru_cache(maxsize=None)
def killing_gram(rs: RootSystem, sc: StructureConstants) -> KillingForm:
    """Killing form B(b_x, b_y) = sum over (o, i) of ad[x, o, i] ad[y, i, o], exact
    in integers: each adjoint entry at slot (o, i) meets the entries at (i, o)."""
    labels, index, entries = _adjoint(rs, sc)
    at_slot: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for x, o, i, v in entries.T.tolist():
        at_slot.setdefault((o, i), []).append((x, v))
    rows, cols, products = np.array([(x, y, v * w) for (o, i), left in at_slot.items()
                                     for y, w in at_slot.get((i, o), ()) for x, v in left],
                                    dtype=np.int64).T
    gram = np.zeros((len(labels),) * 2, dtype=np.int64)
    np.add.at(gram, (rows, cols), products)
    return KillingForm(rs=rs, labels=labels, index=index, gram=gram)


# ---------------------------------------------------------------------------
# The real tangent basis


@dataclass(frozen=True, eq=False)
class MBasis:
    """Ordered real basis U_a, V_a of the reductive complement m."""

    rs: RootSystem
    labels: tuple[tuple[Coords, str], ...]
    index: dict[tuple[Coords, str], int]

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
        out = np.zeros(self.dim)
        out[k] = 1.0
        return out

    def to_lie(self, x: np.ndarray) -> LieElement:
        """Expand real m coordinates into a sparse complex element."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionError(f"expected coordinate length {self.dim}, got {x.shape}")
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
    labels: list[tuple[Coords, str]] = []
    for alpha in rs.positive_roots:
        labels.append((alpha, "U"))
        labels.append((alpha, "V"))
    return MBasis(rs=rs, labels=tuple(labels), index={lab: k for k, lab in enumerate(labels)})


def project_root_space(x: LieElement, gamma: Coords) -> complex:
    """Coefficient of E_gamma in x."""
    return x.roots.get(gamma, 0.0 + 0.0j)


def project_m(mb: MBasis, x: LieElement, tol: float = 1e-9) -> np.ndarray:
    """Drop the Cartan part and express the root part over the m basis.

    Requires the reality condition coeff(E_{-a}) = -conj(coeff(E_a)) within
    ``tol``; violations raise RepresentationError.
    """
    if x.rank != mb.rs.rank:
        raise DimensionError("element does not match the basis rank")
    out = np.zeros(mb.dim)
    for k, alpha in enumerate(mb.rs.positive_roots):
        a = x.roots.get(alpha, 0.0 + 0.0j)
        b = x.roots.get(negate(alpha), 0.0 + 0.0j)
        if abs(b + a.conjugate()) > tol:
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
    """The nonzero entries T[i, j, k] = t of the m-bracket, as arrays (i, j, k, t).

    Read off the root triples: a pair (g, d) with g + d = s a positive root
    brackets the E_g, E_d parts of e_i, e_j into N(g, d) E_s. E_g has
    coefficient sign(g) in U_|g| and i in V_|g|, and the real and imaginary
    parts of the E_s coefficient are the U_s and V_s coordinates, so each
    such pair gives exactly four entries, one per choice of U or V on each
    side. No two pairs share an entry: g + d = g' + d' with g' = +-g,
    d' = +-d forces g' = g, d' = d.
    """
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
    k = np.concatenate([2 * r, 2 * r + 1, 2 * r + 1, 2 * r])  # UU, UV, VU, VV
    t = np.concatenate([sg * sd * n, sg * n, sd * n, -n]).astype(float)
    for a in (i, j, k, t):
        a.flags.writeable = False  # shared through the cache
    return i, j, k, t


def _scatter(mb: MBasis, i, j, k, values) -> np.ndarray:
    out = np.zeros((mb.dim,) * 3)
    out[i, j, k] = values
    return out


def m_bracket_table(sc: StructureConstants, mb: MBasis) -> np.ndarray:
    """Dense table T[i, j, :] = m coordinates of [e_i, e_j]_m, scattered from
    m_bracket_entries on each call; no pipeline stage reads it."""
    return _scatter(mb, *m_bracket_entries(sc, mb))
