"""Seeded workload inputs, generated apart from the program under test.

The workload seed fixes every input: the CLI coefficient files, the swept
metrics and the query vectors. Each block of inputs is drawn from its own
stream ``(seed, stream, block)``, so a run can draw as many blocks as its
time allows and any block can be regenerated to confirm that the same seed
gives byte-identical inputs.

Metric coefficients are log-uniform in [0.1, 10], a realistic spread for an
invariant metric. Wider spreads (about 1e16) reach a known tolerance defect
of the checks and are not what this benchmark measures.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

C_LOW, C_HIGH = 0.1, 10.0

# cli-verify: one pass runs these jobs in this order, all with --checks all.
CLI_JOBS = (
    ("A", 3, "random"),
    ("A", 4, "random"),
    ("A", 4, "normal"),
    ("B", 3, "random"),
    ("C", 3, "random"),
    ("D", 4, "random"),
)

# metric-sweep: each block holds this many continuous metrics plus one normal
# metric and one two-level tied metric, so two metrics in five have ties and
# the c_a == c_b short-circuit of the closed form stays in play, while the
# median metric is a continuous one.
SWEEP_CONTINUOUS = 3

# nabla-queries: each block holds this many dense and sparse queries. Sparse
# queries are a slight majority, so the median query is a sparse one and the
# tail falls among the dense ones.
QUERY_DENSE, QUERY_SPARSE = 4, 5

_CLI, _SWEEP, _NABLA_METRIC, _QUERY = 1, 2, 3, 4


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _log_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(C_LOW), np.log(C_HIGH), n))


def coefficient_file(seed: int, job: int, positive_roots) -> bytes:
    """JSON coefficient list for CLI job ``job``, one entry per positive root."""
    c = _log_uniform(_rng(seed, _CLI, job), len(positive_roots))
    entries = [{"root": list(a), "c": float(v)} for a, v in zip(positive_roots, c)]
    return json.dumps(entries).encode()


def sweep_block(seed: int, block: int, n_pos: int) -> list[tuple[str, np.ndarray]]:
    """(kind, coefficients) for one block of metric-sweep, in seeded order."""
    rng = _rng(seed, _SWEEP, block)
    metrics = [("continuous", _log_uniform(rng, n_pos)) for _ in range(SWEEP_CONTINUOUS)]
    metrics.append(("normal", np.full(n_pos, float(rng.integers(1, 5)))))
    tied = rng.integers(1, 3, n_pos).astype(float)
    tied[rng.choice(n_pos, 2, replace=False)] = (1.0, 2.0)  # both levels occur
    metrics.append(("tied", tied))
    return [metrics[i] for i in rng.permutation(len(metrics))]


def nabla_metric(seed: int, n_pos: int) -> np.ndarray:
    """The one fixed metric of nabla-queries."""
    return _log_uniform(_rng(seed, _NABLA_METRIC), n_pos)


def _block_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Gaussian vector supported on 1 to 3 random root blocks (U_a, V_a)."""
    v = np.zeros(dim)
    for k in rng.choice(dim // 2, int(rng.integers(1, 4)), replace=False):
        v[2 * k:2 * k + 2] = rng.standard_normal(2)
    return v


def query_block(seed: int, block: int, dim: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """One block of (kind, x, y) queries for nabla-queries, in seeded order."""
    rng = _rng(seed, _QUERY, block)
    queries = [("dense", rng.standard_normal(dim), rng.standard_normal(dim))
               for _ in range(QUERY_DENSE)]
    queries += [("sparse", _block_vector(rng, dim), _block_vector(rng, dim))
                for _ in range(QUERY_SPARSE)]
    return [queries[i] for i in rng.permutation(len(queries))]


def digest(items) -> str:
    """SHA-256 over the bytes of the strings and arrays in ``items``."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode() if isinstance(item, str) else item.tobytes())
    return h.hexdigest()
