"""Command line front end: configuration, pipeline orchestration, serialization.

Metric coefficients are not coerced: a root is a list of integers, and each c
goes to MetricSpec as given, for the library's coefficient rule to judge. The
tensor is written as Γ's nonzero entries, sparse (i, j, k, value) triples,
either inside a single JSON document together with the basis labels, check
reports and run metadata, or as a CSV table with the reports in a JSON sidecar.
Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import json
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import __version__
from .chevalley import build_m_basis, chevalley_constants, killing_gram
from .connection import ConnectionTensor, assemble_tensor
from .errors import ConfigurationError, FlagConnError
from .metric import MetricSpec, build_metric
from .oracle import (
    DEFAULT_TOLERANCE,
    check_lemma2,
    check_metric_compat,
    check_oracle_equivalence,
    check_torsion,
)
from .rootsys import FAMILIES, build_root_system
from .su_realization import check_su_crosscheck

FORMATS = ("json", "csv")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
_exit_hook: list = []  # gc.freeze, once main has registered it with atexit

# Each check in report order: the families it is defined for, and the call that makes its
# reports from the job's stages. CHECK_NAMES, "all" and run_job read this table, so adding a
# check is adding a row. The calls look their functions up in this module when they run.
CHECKS = {
    "oracle": (FAMILIES, lambda job: [check_oracle_equivalence(job.rs, job.sc, job.spec,
                                                               job.tolerance)]),
    "torsion": (FAMILIES, lambda job: [check_torsion(job.tensor, job.sc, job.tolerance)]),
    "metric": (FAMILIES, lambda job: [check_metric_compat(job.tensor, job.gram, job.tolerance)]),
    "lemma2": (FAMILIES, lambda job: [check_lemma2(job.rs)]),
    "su-crosscheck": (("A",), lambda job: check_su_crosscheck(job.rs, job.sc, job.spec,
                                                              job.tolerance)),
}
CHECK_NAMES = tuple(CHECKS)


@dataclass
class JobConfig:
    """One pipeline run: which manifold, which metric, which checks."""

    family: str | None = None
    rank: int | None = None
    coefficients: object = "normal"  # "normal" or list of {"root": [...], "c": ...}
    checks: tuple[str, ...] | str = ()  # check names, a comma string, "all" for each defined one
    tolerance: float = DEFAULT_TOLERANCE
    seed: int = 0
    output_path: str | None = None
    format: str = "json"

    def validate(self) -> "JobConfig":
        """This job with every field but the coefficients coerced and checked: the one gate
        of flags, config files and run_job."""
        if self.family is None or self.rank is None:
            raise ConfigurationError("--family and --rank are required (flags or config file)")
        rank = _number(int, self.rank, "rank")
        family = build_root_system(self.family, rank).family  # refuses the family or the rank
        names = self.checks.split(",") if isinstance(self.checks, str) else self.checks
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise ConfigurationError("checks must be a comma list or a list of check names")
        checks = []
        for name in dict.fromkeys(c for n in names if n for c in (CHECKS if n == "all" else [n])):
            if name not in CHECKS:
                raise ConfigurationError(f"unknown check {name!r}; "
                                         f"expected a subset of {CHECK_NAMES}")
            families = CHECKS[name][0]
            if family in families:
                checks.append(name)
            elif name in names:  # named, not only reached through "all"
                raise ConfigurationError(
                    f"{name} is only defined for family {' or '.join(families)}")
        tolerance = _number(float, self.tolerance, "tolerance")
        if not (tolerance > 0 and np.isfinite(tolerance)):
            raise ConfigurationError("tolerance must be positive and finite")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigurationError(f"output must be a file path, got {self.output_path!r}")
        if self.format not in FORMATS:
            raise ConfigurationError(f"unknown output format {self.format!r}; expected {FORMATS}")
        return replace(self, family=family, rank=rank, checks=tuple(checks),
                       tolerance=tolerance, seed=_number(int, self.seed, "seed"))


def _number(kind, value, key: str):
    try:
        if isinstance(value, bool) or kind is int and isinstance(value, float) and value % 1:
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{key} must be a number, got {value!r}") from None


def metric_spec_from_config(rs, coefficients) -> MetricSpec:
    """Build a MetricSpec from the config coefficient block; each c is checked by the
    library's coefficient rule, as given."""
    if coefficients == "normal":
        return MetricSpec.normal(rs)
    if not isinstance(coefficients, (list, tuple)):
        raise ConfigurationError('coefficients must be "normal" or a list of {root, c} entries')
    seen: dict = {}
    for entry in coefficients:
        try:
            root, value = entry["root"], entry["c"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed coefficient entry {entry!r}") from exc
        if not isinstance(root, list) or not all(type(v) is int for v in root):
            raise ConfigurationError(f"a root must be a list of integers, got {root!r}")
        root = tuple(root)
        if root not in rs.all_roots or not rs.is_positive(root):
            raise ConfigurationError(f"{list(root)} is not a positive root of the system")
        if root in seen:
            raise ConfigurationError(f"duplicate coefficient for root {list(root)}")
        seen[root] = value
    spec = MetricSpec(seen)
    spec.validate(rs)  # reports missing roots and values that are no positive finite real
    return spec


def tensor_triples(tensor: ConnectionTensor) -> list[dict]:
    """Sparse listing of Γ's nonzero entries, row-major."""
    *index, values = tensor._nonzeros()
    keep = values != 0
    return [{"i": i, "j": j, "k": k, "value": v}
            for i, j, k, v in zip(*(a[keep].tolist() for a in (*index, values)))]


def write_report(path: str, payload: dict) -> None:
    """Serialize the full JSON document: json.dump's chunks, written 512 at a time."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    with open(path, "w", encoding="utf-8") as fh:
        while block := "".join(itertools.islice(chunks, 512)):
            fh.write(block)
        fh.write("\n")


def write_tensor(path: str, triples: list[dict]) -> None:
    """Serialize the tensor triples as CSV with a header row, CRLF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,j,k,value\r\n")
        fh.writelines(f"{t['i']},{t['j']},{t['k']},{t['value']!r}\r\n" for t in triples)


def read_tensor(path: str) -> tuple[ConnectionTensor, dict]:
    """Load a JSON document back into a tensor on its entries plus the raw payload."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rs = build_root_system(payload["meta"]["family"], payload["meta"]["rank"])
    mb = build_m_basis(rs)
    rows = np.array([[t["i"], t["j"], t["k"], t["value"]] for t in payload["tensor"]], dtype=float)
    *index, values = rows.reshape(-1, 4).T
    return ConnectionTensor._from_entries(mb, *(a.astype(int) for a in index), values), payload


def run_job(config: JobConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    try:
        config = config.validate()
        rs = build_root_system(config.family, config.rank)
        spec = metric_spec_from_config(rs, config.coefficients)
    except FlagConnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    sc = chevalley_constants(rs)
    mb = build_m_basis(rs)
    gram = build_metric(rs, killing_gram(rs, sc), spec)
    tensor = assemble_tensor(sc, mb, spec)

    job = SimpleNamespace(rs=rs, sc=sc, spec=spec, gram=gram, tensor=tensor,
                          tolerance=config.tolerance)
    reports = [report for name in config.checks for report in CHECKS[name][1](job)]

    coeff_list = [
        {"root": list(alpha), "c": float(spec.c(alpha))} for alpha in rs.positive_roots
    ]
    payload = {
        "basis": [{"root": list(alpha), "kind": kind} for alpha, kind in mb.labels],
        "tensor": tensor_triples(tensor),
        "checks": [r.to_dict() for r in reports],
        "meta": {
            "family": rs.family,
            "rank": rs.rank,
            "coefficients": coeff_list,
            "tolerance": config.tolerance,
            "seed": config.seed,
            "version": __version__,
        },
    }

    out_path = config.output_path or f"connection.{config.format}"
    try:
        if config.format == "json":
            write_report(out_path, payload)
        else:
            write_tensor(out_path, payload["tensor"])
            sidecar = dict(payload)
            del sidecar["tensor"]
            write_report(out_path + ".checks.json", sidecar)
    except OSError as exc:  # an unwritable output path is a configuration error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.check_name}: {status} (max residual {r.max_residual:.3e}, "
              f"threshold {r.threshold:.1e})")
    print(f"wrote {out_path}")

    if any(not r.passed for r in reports):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _load_coefficients(arg: str):
    if arg == "normal":
        return "normal"
    with open(arg, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):  # "normal" is the flag's word, not a file's
        raise ConfigurationError(f"a coefficient file must hold one JSON list, got {data!r:.60}")
    return data


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error line and exit 2, as for every other bad input
        raise ConfigurationError(message)


def parse_config(argv=None) -> JobConfig:
    """The flags layered over the config file, checked by JobConfig.validate."""
    parser = _Parser(
        prog="flagconn",
        description="Levi-Civita connection of a flag manifold G/T for an "
        "invariant metric, with built-in verification checks.",
    )
    parser.add_argument("--config", help="JSON object of job settings; flags override")
    parser.add_argument("--family", help=f"one of {', '.join(FAMILIES)}")
    parser.add_argument("--rank", help="rank of the root system")
    parser.add_argument("--coeffs", dest="coefficients", metavar="COEFFS",
                        help='"normal" or path to a JSON coefficient list')
    parser.add_argument("--checks", help='comma-separated subset of '
                        f'{",".join(CHECK_NAMES)}, or "all"')
    parser.add_argument("--tolerance", help=f"residual threshold (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--seed", help="recorded in the output metadata (default 0)")
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--format", help=f"one of {', '.join(FORMATS)} (default json)")
    flags = vars(parser.parse_args(argv))

    job: dict = {}
    if config_path := flags.pop("config"):
        with open(config_path, encoding="utf-8") as fh:
            job = json.load(fh)
        if not isinstance(job, dict):
            raise ConfigurationError("a config file must hold a JSON object")
        if unknown := [key for key in job if key not in flags]:  # a typo must not mean a default
            raise ConfigurationError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                                     f"expected a subset of {', '.join(flags)}")
    if flags["coefficients"] is not None:
        flags["coefficients"] = _load_coefficients(flags["coefficients"])
    job.update((key, value) for key, value in flags.items() if value is not None)
    job["output_path"] = job.pop("output", None)
    return JobConfig(**job).validate()


def main(argv=None) -> int:
    # At exit, freeze the heap: the final collections then skip numpy's and flagconn's objects
    # (~30 ms a job; no finalizers here, files close in with blocks). In-process callers keep GC.
    if not _exit_hook:  # once per process: atexit.unregister would leave an empty slot
        _exit_hook.append(atexit.register(gc.freeze))
    try:
        config = parse_config(argv)
    except (OSError, FlagConnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return run_job(config)


if __name__ == "__main__":
    sys.exit(main())
