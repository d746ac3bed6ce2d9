"""Command line front end: configuration, pipeline orchestration, serialization.

The tensor is written as sparse (i, j, k, value) triples, either inside a
single JSON document together with the basis labels, check reports and run
metadata, or as a CSV table with the reports in a JSON sidecar. Output is
deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

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
from .rootsys import build_root_system
from .su_realization import check_su_crosscheck

CHECK_NAMES = ("oracle", "torsion", "metric", "lemma2", "su-crosscheck")
SPARSE_THRESHOLD = 1e-12

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


@dataclass
class JobConfig:
    """One pipeline run: which manifold, which metric, which checks."""

    family: str
    rank: int
    coefficients: object = "normal"  # "normal" or list of {"root": [...], "c": ...}
    checks: tuple[str, ...] = ()
    tolerance: float = DEFAULT_TOLERANCE
    seed: int = 0
    output_path: str | None = None
    format: str = "json"

    def validate(self) -> None:
        if self.format not in ("json", "csv"):
            raise ConfigurationError(f"unknown output format {self.format!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigurationError(f"output must be a file path, got {self.output_path!r}")
        if not (self.tolerance > 0 and np.isfinite(self.tolerance)):
            raise ConfigurationError("tolerance must be positive and finite")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ConfigurationError(
                    f"unknown check {name!r}; expected a subset of {CHECK_NAMES}"
                )
        if "su-crosscheck" in self.checks and self.family.upper() != "A":
            raise ConfigurationError("su-crosscheck is only defined for family A")


def _number(kind, value, key: str):
    try:
        if isinstance(value, bool) or kind is int and isinstance(value, float) and value % 1:
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{key} must be a number, got {value!r}") from None


def metric_spec_from_config(rs, coefficients) -> MetricSpec:
    """Build a MetricSpec from the config coefficient block."""
    if coefficients == "normal":
        return MetricSpec.normal(rs)
    if not isinstance(coefficients, (list, tuple)):
        raise ConfigurationError('coefficients must be "normal" or a list of {root, c} entries')
    seen: dict = {}
    for entry in coefficients:
        try:
            root = tuple(_number(int, v, "root") for v in entry["root"])
            value = _number(float, entry["c"], "c")
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: ConfigurationError too
            raise ConfigurationError(f"malformed coefficient entry {entry!r}") from exc
        if root not in rs.all_roots or not rs.is_positive(root):
            raise ConfigurationError(f"{list(root)} is not a positive root of the system")
        if root in seen:
            raise ConfigurationError(f"duplicate coefficient for root {list(root)}")
        seen[root] = value
    spec = MetricSpec(seen)
    spec.validate(rs)  # reports missing roots and nonpositive values
    return spec


def tensor_triples(tensor: ConnectionTensor, threshold: float = SPARSE_THRESHOLD) -> list[dict]:
    """Sparse listing of tensor entries above the magnitude threshold."""
    gamma = tensor.gamma
    index = np.nonzero(np.abs(gamma) > threshold)
    return [{"i": i, "j": j, "k": k, "value": v}
            for i, j, k, v in zip(*(a.tolist() for a in index), gamma[index].tolist())]


def write_report(path: str, payload: dict) -> None:
    """Serialize the full JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_tensor(path: str, triples: list[dict]) -> None:
    """Serialize the tensor triples as CSV with a header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "k", "value"])
        for t in triples:
            writer.writerow([t["i"], t["j"], t["k"], repr(t["value"])])


def read_tensor(path: str) -> tuple[ConnectionTensor, dict]:
    """Load a JSON document back into a dense tensor plus the raw payload."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rs = build_root_system(payload["meta"]["family"], payload["meta"]["rank"])
    mb = build_m_basis(rs)
    gamma = np.zeros((mb.dim, mb.dim, mb.dim))
    for t in payload["tensor"]:
        gamma[t["i"], t["j"], t["k"]] = t["value"]
    return ConnectionTensor(mbasis=mb, gamma=gamma), payload


def run_job(config: JobConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    try:
        config.validate()
        rs = build_root_system(config.family, config.rank)
        spec = metric_spec_from_config(rs, config.coefficients)
    except FlagConnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    sc = chevalley_constants(rs)
    mb = build_m_basis(rs)
    gram = build_metric(rs, killing_gram(rs, sc), spec)
    tensor = assemble_tensor(sc, mb, spec)

    reports = []
    for name in config.checks:
        if name == "oracle":
            reports.append(check_oracle_equivalence(rs, sc, spec, config.tolerance))
        elif name == "torsion":
            reports.append(check_torsion(tensor, sc, config.tolerance))
        elif name == "metric":
            reports.append(check_metric_compat(tensor, gram, config.tolerance))
        elif name == "lemma2":
            reports.append(check_lemma2(rs))
        elif name == "su-crosscheck":
            reports.extend(check_su_crosscheck(rs, sc, spec, config.tolerance))

    coeff_list = [
        {"root": list(alpha), "c": spec.c(alpha)} for alpha in rs.positive_roots
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
    if isinstance(data, dict) and "coefficients" in data:
        data = data["coefficients"]
    return data


def parse_config(argv=None) -> JobConfig:
    """Assemble a JobConfig from flags, optionally layered over a config file."""
    parser = argparse.ArgumentParser(
        prog="flagconn",
        description="Levi-Civita connection of a flag manifold G/T for an "
        "invariant metric, with built-in verification checks.",
    )
    parser.add_argument("--config", help="JSON file with JobConfig fields; flags override")
    parser.add_argument("--family", choices=list("ABCD") + list("abcd"))
    parser.add_argument("--rank", type=int)
    parser.add_argument("--coeffs", help='"normal" or path to a JSON coefficient list')
    parser.add_argument("--checks", help='comma-separated subset of '
                        f'{",".join(CHECK_NAMES)}, or "all"')
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--format", choices=["json", "csv"])
    args = parser.parse_args(argv)

    file_cfg: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigurationError("a config file must hold a JSON object")

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    family = pick(args.family, "family", None)
    rank = pick(args.rank, "rank", None)
    if family is None or rank is None:
        parser.error("--family and --rank are required (flags or config file)")

    coefficients = file_cfg.get("coefficients", "normal")
    if args.coeffs is not None:
        coefficients = _load_coefficients(args.coeffs)

    checks_value = pick(args.checks, "checks", "")
    if isinstance(checks_value, str):
        checks_value = [c for c in checks_value.split(",") if c]
    if not isinstance(checks_value, list):
        raise ConfigurationError("checks must be a comma list or a list of check names")
    checks: list[str] = []
    for name in checks_value:
        if name == "all":
            checks.extend(c for c in CHECK_NAMES
                          if c != "su-crosscheck" or str(family).upper() == "A")
        else:
            checks.append(name)

    return JobConfig(
        family=str(family).upper(),
        rank=_number(int, rank, "rank"),
        coefficients=coefficients,
        checks=tuple(dict.fromkeys(checks)),
        tolerance=_number(float, pick(args.tolerance, "tolerance", DEFAULT_TOLERANCE), "tolerance"),
        seed=_number(int, pick(args.seed, "seed", 0), "seed"),
        output_path=pick(args.output, "output", None),
        format=pick(args.format, "format", "json"),
    )


def main(argv=None) -> int:
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
