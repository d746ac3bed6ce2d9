"""The three workloads: their set-up, their operations and each operation's gate.

Every workload is closed loop: one caller, one operation at a time. An
operation returns its timed seconds and whether it passed its correctness
gate; the gate runs outside the timed region.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import flagconn
import flagconn.cli
import inputs
from tracer import flagconn_modules, merge_spans, read_spans

# Residuals of the gates are judged against this share of the largest entry.
REL_TOL = 1e-9
JOB_TIMEOUT_S = 150.0
CLI_ENTRY = "import sys; from flagconn.cli import main; sys.exit(main())"


def _flagconn_caches() -> list:
    """Every memoized function of the package, to make set-up cold again."""
    found = {id(value): value for mod in flagconn_modules() for value in vars(mod).values()
             if callable(getattr(value, "cache_clear", None))}
    return list(found.values())


def _digest(block: list) -> str:
    return inputs.digest(part for item in block for part in item)


def _failed_op(exc: BaseException) -> None:
    print(f"operation raised {exc!r}", file=sys.stderr)
    traceback.print_exc()


class CliVerify:
    """Fresh-process ``flagconn --checks all --format json`` jobs, a fixed list per pass."""

    name = "cli-verify"
    nouns = ("jobs", "job")  # names of the metrics in the printed summary
    in_process = False
    blocks = 1  # a run's inputs: this many blocks (passes of the job list)

    def __init__(self, root: Path, seed: int, tmp: Path, env: dict) -> None:
        self.root, self.seed, self.tmp, self.env = root, seed, tmp, env
        self.caches = _flagconn_caches()
        self.peak_rss_mb = 0.0
        self.job_walls: dict = {}
        self.output_bytes = 0
        self.coeff_paths: list[str] = []
        self.specs = []
        for job, (family, rank, kind) in enumerate(inputs.CLI_JOBS):
            rs = flagconn.build_root_system(family, rank)
            if kind == "normal":
                self.coeff_paths.append("normal")
                self.specs.append(None)
                continue
            data = inputs.coefficient_file(seed, job, rs.positive_roots)
            path = tmp / f"coeffs-{job}.json"
            path.write_bytes(data)
            self.coeff_paths.append(str(path))
            self.specs.append({tuple(e["root"]): e["c"] for e in json.loads(data)})

    def _spawn(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run a child to completion; return its exit code, wall time and peak RSS (MB)."""
        with open(log, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cold_setup(self) -> float:
        """A fresh interpreter until ``import flagconn.cli`` returns."""
        rc, wall, _ = self._spawn([sys.executable, "-c", "import flagconn.cli"],
                                  self.tmp / "setup.log")
        if rc != 0:
            raise RuntimeError(f"importing flagconn.cli failed, see {self.tmp / 'setup.log'}")
        return wall

    def prepare(self) -> None:
        pass

    def block(self, b: int) -> list[int]:
        return list(range(len(inputs.CLI_JOBS)))

    def run_op(self, job: int, op: str, tracer) -> tuple[float, bool]:
        family, rank, _ = inputs.CLI_JOBS[job]
        out = self.tmp / f"job-{job}.json"
        args = ["--family", family, "--rank", str(rank), "--coeffs", self.coeff_paths[job],
                "--checks", "all", "--format", "json", "--output", str(out),
                "--seed", str(self.seed)]
        spans = self.tmp / f"spans-{job}.jsonl"
        for stale in (out, spans):  # a job must not pass on an earlier job's files
            stale.unlink(missing_ok=True)
        if tracer is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                    str(spans), *args]
        rc, wall, rss = self._spawn(argv, self.tmp / f"job-{job}.log")
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        try:
            ok = rc == 0 and self._gate(job, out)
            if tracer is not None:
                merge_spans(tracer.spans, read_spans(spans), op)
                self.job_walls[op] = wall
                self.output_bytes += out.stat().st_size
        except Exception as exc:  # a broken job must not stop the run
            _failed_op(exc)
            ok = False
        if not ok:
            print(f"job {job} ({family}{rank}) failed its gate, exit {rc}", file=sys.stderr)
        return wall, ok

    def _gate(self, job: int, out: Path) -> bool:
        """Every report passed, and the tensor read back is torsion-free and metric."""
        tensor, payload = flagconn.cli.read_tensor(str(out))
        expected = 5 if inputs.CLI_JOBS[job][0] == "A" else 4
        checks = payload["checks"]
        if len(checks) < expected or not all(c["passed"] for c in checks):
            return False
        rs = tensor.mbasis.rs
        sc = flagconn.chevalley_constants(rs)
        coeffs = self.specs[job]
        spec = flagconn.MetricSpec.normal(rs) if coeffs is None else flagconn.MetricSpec(coeffs)
        gram = flagconn.build_metric(rs, flagconn.killing_gram(rs, sc), spec)
        gamma = tensor.gamma
        table = flagconn.m_bracket_table(sc, tensor.mbasis)
        tol_torsion = REL_TOL * max(np.abs(gamma).max(), np.abs(table).max())
        tol_metric = REL_TOL * np.abs(gamma * gram.diagonal).max()
        ok = (flagconn.check_torsion(tensor, sc, tol_torsion).passed
              and flagconn.check_metric_compat(tensor, gram, tol_metric).passed)
        for cache in self.caches:
            cache.cache_clear()
        return ok

    def inputs_reproduce(self) -> bool:
        for job, (family, rank, kind) in enumerate(inputs.CLI_JOBS):
            if kind == "normal":
                continue
            rs = flagconn.build_root_system(family, rank)
            again = inputs.coefficient_file(self.seed, job, rs.positive_roots)
            if Path(self.coeff_paths[job]).read_bytes() != again:
                return False
        return True

    def rss_mb(self) -> float:
        return self.peak_rss_mb


class _Library:
    """In-process library calls on one root system, built once in set-up."""

    in_process = True
    family: str
    rank: int

    def __init__(self, root: Path, seed: int, tmp: Path, env: dict) -> None:
        self.seed = seed
        self.caches = _flagconn_caches()
        self.job_walls: dict = {}
        self.output_bytes = 0
        self.drawn: list[str] = []  # digest of each block drawn, for the reproduction check

    def cold_setup(self) -> float:
        """Build the metric-independent structures from cold caches."""
        for cache in self.caches:
            cache.cache_clear()
        start = perf_counter()
        rs = flagconn.build_root_system(self.family, self.rank)
        sc = flagconn.chevalley_constants(rs)
        kf = flagconn.killing_gram(rs, sc)
        mb = flagconn.build_m_basis(rs)
        table = flagconn.m_bracket_table(sc, mb)
        # the closed form's per-system pair index is built on first use, once per system
        flagconn.u_bilinear(sc, mb, flagconn.MetricSpec.normal(rs),
                            mb.basis_vector(0), mb.basis_vector(0))
        elapsed = perf_counter() - start
        self.rs, self.sc, self.kf, self.mb, self.table = rs, sc, kf, mb, table
        return elapsed

    def prepare(self) -> None:
        pass

    def run_op(self, item, op: str, tracer) -> tuple[float, bool]:
        if tracer is not None:
            tracer.op = op
        start = perf_counter()
        try:
            result = self._op(item)
        except Exception as exc:  # a broken operation must not stop the run
            _failed_op(exc)
            return perf_counter() - start, False
        elapsed = perf_counter() - start
        with tracer.paused() if tracer is not None else nullcontext():
            try:
                return elapsed, self._gate(item, result)
            except Exception as exc:
                _failed_op(exc)
                return elapsed, False

    def inputs_reproduce(self) -> bool:
        return self.drawn == [_digest(self.block_inputs(b)) for b in range(self.blocks)]

    def block(self, b: int) -> list:
        items = self.block_inputs(b)
        if b == len(self.drawn):
            self.drawn.append(_digest(items))
        return items

    def rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class MetricSweep(_Library):
    """C3: one metric per operation, assembled and checked in full."""

    name = "metric-sweep"
    nouns = ("metrics", "metric")
    family, rank = "C", 3
    blocks = 1

    def block_inputs(self, b: int) -> list[tuple[str, np.ndarray]]:
        return inputs.sweep_block(self.seed, b, len(self.rs.positive_roots))

    def _op(self, item):
        rs, sc = self.rs, self.sc
        _, values = item
        spec = flagconn.MetricSpec.from_values(rs, values)
        tensor = flagconn.assemble_tensor(sc, self.mb, spec)
        gram = flagconn.build_metric(rs, self.kf, spec)
        reports = [
            flagconn.check_oracle_equivalence(rs, sc, spec),
            flagconn.check_torsion(tensor, sc),
            flagconn.check_metric_compat(tensor, gram),
        ]
        return tensor, reports

    def _gate(self, item, result) -> bool:
        _, values = item
        tensor, reports = result
        if not all(r.passed for r in reports):
            return False
        normal = bool(np.all(values == values[0]))
        return normal or bool(np.any(tensor.gamma != 0.5 * self.table))


class NablaQueries(_Library):
    """A6 with one fixed metric: one nabla(x, y) point query per operation."""

    name = "nabla-queries"
    nouns = ("queries", "query")
    family, rank = "A", 6
    blocks = 30

    def prepare(self) -> None:
        values = inputs.nabla_metric(self.seed, len(self.rs.positive_roots))
        self.spec = flagconn.MetricSpec.from_values(self.rs, values)
        self.gram = flagconn.build_metric(self.rs, self.kf, self.spec)
        self.metric_values = values

    def block_inputs(self, b: int) -> list:
        return inputs.query_block(self.seed, b, self.mb.dim)

    def _op(self, query):
        _, x, y = query
        return flagconn.nabla(self.sc, self.mb, self.spec, x, y)

    def _gate(self, query, result) -> bool:
        _, x, y = query
        expected = (0.5 * np.einsum("ijk,i,j->k", self.table, x, y)
                    + flagconn.u_oracle(self.rs, self.sc, self.gram, x, y))
        scale = max(np.abs(expected).max(), np.abs(x).max() * np.abs(y).max())
        return bool(np.all(np.abs(result - expected) <= REL_TOL * scale))

    def inputs_reproduce(self) -> bool:
        again = inputs.nabla_metric(self.seed, len(self.rs.positive_roots))
        return (again.tobytes() == self.metric_values.tobytes()
                and super().inputs_reproduce())


WORKLOADS = {w.name: w for w in (CliVerify, MetricSweep, NablaQueries)}
