"""Invariant Riemannian metrics as diagonal Gram matrices on the m basis.

The metric is a positive weight c_a on each 2-dimensional block m^a against
the negative of the Killing form. Because the blocks are mutually
non-equivalent isotropy modules, every invariant metric is of this diagonal
form; no generality is lost. Per system, the block norms 2 B(E_a, E_-a) are cached
(_block_norms). A public call reads a spec's values once per table it looks up in a typed
one-slot memo (_per_metric); they are checked once, into one read-only array (_checked).
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .chevalley import KillingForm, _coords, build_m_basis
from .errors import ConfigurationError
from .rootsys import Coords, RootSystem, _one_system


def _coefficients(rs: RootSystem, values: tuple) -> np.ndarray:
    """``values`` (rs.positive_roots order, None if missing) checked real, positive, finite."""
    c = np.array([v if type(v) is float or isinstance(v, numbers.Real) and type(v) is not bool
                  and abs(v) <= sys.float_info.max  # past it, float(v) overflows
                  else np.nan for v in values], dtype=float)  # a bool is no coefficient
    if c[c.argmin()] > 0 and c[c.argmax()] < np.inf:  # min > 0 and max < inf; NaN is both
        return c
    bad = int(np.argmin((c > 0) & np.isfinite(c)))  # the first failing root
    alpha, v = rs.positive_roots[bad], values[bad]
    raise ConfigurationError(
        f"missing metric coefficient for root {alpha}" if v is None else
        f"metric coefficient for root {alpha} must be positive and finite, got {v!r}")


def _per_metric(memo, rs: RootSystem, values: tuple, *system):
    """``memo(*system, *values)``; values that fail as its key raise the coefficient check's
    error, else this one."""
    try:
        return memo(*system, *values)
    except TypeError:  # an unhashable value
        _coefficients(rs, values)
        raise ConfigurationError(
            f"metric coefficients must be hashable real numbers, got {values!r}")


@functools.lru_cache(maxsize=1, typed=True)  # typed: 3 + 0j must miss a cached 3.0
def _checked(rs: RootSystem, *values) -> np.ndarray:
    """The coefficients of one metric, checked once; read-only, shared through the cache."""
    c = _coefficients(rs, values)
    c.flags.writeable = False
    return c


@dataclass(frozen=True)
class MetricSpec:
    """Positive coefficient c_a per positive root a."""

    coeffs: dict[Coords, float]

    @classmethod
    def normal(cls, rs: RootSystem, value: float = 1.0) -> "MetricSpec":
        """All coefficients equal: the normal (Killing) metric."""
        return cls(dict.fromkeys(rs.positive_roots, value))

    @classmethod
    def from_values(cls, rs: RootSystem, values) -> "MetricSpec":
        """Coefficients in the order of rs.positive_roots, kept as given, checked where used."""
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if len(values) != len(rs.positive_roots):
            raise ConfigurationError(
                f"expected {len(rs.positive_roots)} coefficients, got {len(values)}")
        return cls(dict(zip(rs.positive_roots, values)))

    def c(self, alpha: Coords) -> float:
        return self.coeffs[alpha]

    def _values(self, rs: RootSystem) -> tuple:
        """The coefficients in rs.positive_roots order, None where one is missing."""
        if tuple(self.coeffs) == rs.positive_roots:  # the order of from_values and normal
            return tuple(self.coeffs.values())
        return tuple(map(self.coeffs.get, rs.positive_roots))

    def validate(self, rs: RootSystem) -> None:
        _per_metric(_checked, rs, self._values(rs), rs)


@dataclass(frozen=True, eq=False)
class MetricGram:
    """Diagonal Gram matrix of the metric over the m basis."""

    mbasis: object
    diagonal: np.ndarray


@functools.lru_cache(maxsize=None)
def _block_norms(rs: RootSystem, killing: KillingForm) -> np.ndarray:
    """(-B)(U_a, U_a) = (-B)(V_a, V_a) = 2 B(E_a, E_{-a}); E_{-a} sits |roots+| after E_a."""
    norms = 2.0 * np.diagonal(killing.gram, len(rs.positive_roots))[rs.rank:]
    norms.flags.writeable = False  # shared through the cache
    return norms


@functools.lru_cache(maxsize=1, typed=True)  # keyed like connection._gamma_entries
def _gram(rs: RootSystem, killing: KillingForm, *values) -> MetricGram:
    diagonal = (_checked(rs, *values) * _block_norms(rs, killing)).repeat(2)
    diagonal.flags.writeable = False  # shared through the cache
    return MetricGram(mbasis=build_m_basis(rs), diagonal=diagonal)


def build_metric(rs: RootSystem, killing: KillingForm, spec: MetricSpec) -> MetricGram:
    """Gram matrix with entry c_a * (-B)(e, e) at each basis slot of m^a; the last is memoized."""
    _one_system("root system and the Killing form", rs, killing.rs)
    return _per_metric(_gram, rs, spec._values(rs), rs, killing)


def inner(gram: MetricGram, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate the metric on two m coordinate vectors."""
    x, y = _coords(gram.mbasis, x), _coords(gram.mbasis, y)
    return float(np.sum(gram.diagonal * x * y))
