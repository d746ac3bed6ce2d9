"""Spans around calls into flagconn's public functions, recorded from outside.

``Tracer.install`` replaces each traced function on every ``flagconn`` module
that holds it, so a call is caught where its caller looks the name up
(``flagconn.cli.assemble_tensor``, ``flagconn.oracle.u_bilinear``,
``flagconn.connection.bracket`` ...). Nothing under ``src/`` changes. Each
call records a span: name, start, end, parent span and operation id. Spans
stay in memory and are written out as JSON lines when the run ends.

``layer_metrics`` turns a list of spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions whose calls become spans. The layer of a span is the
# module that defines the function.
TRACED = (
    "build_root_system",
    "chevalley_constants",
    "killing_gram",
    "m_bracket_table",
    "bracket",
    "build_metric",
    "assemble_tensor",
    "u_bilinear",
    "nabla",
    "u_oracle",
    "check_oracle_equivalence",
    "check_torsion",
    "check_metric_compat",
    "check_lemma2",
    "check_su_crosscheck",
    "u_sun",
    "build_alignment",
    "run_job",
    "tensor_triples",
    "write_report",
)


def _system(rs) -> str:
    return f"{rs.family}{rs.rank}"


def _root_counters(args, rs) -> dict:
    roots = rs.all_roots
    triples = sum(
        1 for a in roots for b in roots if tuple(x + y for x, y in zip(a, b)) in roots
    )
    return {
        "system": _system(rs),
        "positive_roots": len(rs.positive_roots),
        "root_triples": triples,
    }


def _assemble_counters(args, tensor) -> dict:
    gamma = tensor.gamma
    n = gamma.shape[0]
    return {
        "system": _system(tensor.mbasis.rs),
        "dim": n,
        "nnz": int(np.count_nonzero(gamma)),
        "useful_pairs": int(np.count_nonzero(np.any(gamma != 0, axis=2))),
        "pairs": n * n,
    }


def _nabla_counters(args, result) -> dict:
    return {"system": _system(args[0].rs), "dim": len(result)}


def _u_counters(args, result) -> dict:
    return {"zero": not np.any(result)}


# Counters read from a call's arguments and result after its span has ended.
COUNTERS = {
    "build_root_system": _root_counters,
    "assemble_tensor": _assemble_counters,
    "nabla": _nabla_counters,
    "u_bilinear": _u_counters,
}


def flagconn_modules() -> list:
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "flagconn" or key.startswith("flagconn."))
    ]


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None  # operation id stamped on new spans
        self._stack: list[int] = []
        self._paused = False
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every traced function on each flagconn module that holds it."""
        wrappers: dict[int, object] = {}
        for mod in flagconn_modules():
            for name in TRACED:
                fn = getattr(mod, name, None)
                if fn is None or not getattr(fn, "__module__", "").startswith("flagconn"):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name)
                self._patched.append((mod, name, fn))
                setattr(mod, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Calls inside the block record nothing (correctness gates)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller (for work that is not a function call)."""
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": None, "op": self.op})

    def _wrap(self, fn, name: str):
        span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
        counters = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = {"id": len(spans), "name": span_name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "op": self.op}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if counters is not None:
                span.update(counters(args, result))
            return result

        return wrapper


def write_spans(path: str, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def merge_spans(spans: list[dict], more: list[dict], op) -> None:
    """Append spans of another process, renumbered and stamped with ``op``."""
    base = len(spans)
    for span in more:
        span = dict(span, id=span["id"] + base, op=op)
        if span["parent"] is not None:
            span["parent"] += base
        spans.append(span)


def layer_metrics(spans: list[dict], job_walls: dict | None = None,
                  output_bytes: int = 0, overhead_s: float = 0.0) -> dict[str, float]:
    """Per-layer totals over the traced work.

    ``job_walls`` maps an operation id to the wall time of a CLI job, as its
    parent measured it; ``output_bytes`` is the size of the documents the
    jobs wrote.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    by_id = {s["id"]: s for s in spans}
    in_children: dict[int, float] = defaultdict(float)
    by_fn: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            in_children[s["parent"]] += dur[s["id"]]
        by_fn[s["name"].rsplit(".", 1)[-1]].append(s)

    def total(*fns):
        return sum(dur[s["id"]] for fn in fns for s in by_fn[fn])

    def self_time(fn):
        return sum(dur[s["id"]] - in_children[s["id"]] for s in by_fn[fn])

    def calls(fn):
        return len(by_fn[fn])

    def per_system(fns, key):
        seen = {}
        for fn in fns:
            for s in by_fn[fn]:
                if key in s:  # a call that raised has no counters
                    seen[s["system"]] = s[key]
        return sum(seen.values())

    def inside(span, fn):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"].endswith("." + fn):
                return True
            parent = by_id[parent]["parent"]
        return False

    equivalence = total("check_oracle_equivalence")
    closed_form = sum(dur[s["id"]] for s in by_fn["u_bilinear"]
                      if inside(s, "check_oracle_equivalence"))
    assembles = [s for s in by_fn["assemble_tensor"] if "dim" in s]
    pairs = sum(s["pairs"] for s in assembles)

    u_zero: dict = {}
    for s in by_fn["u_bilinear"]:
        if s["op"] != "setup":
            u_zero[s["op"]] = u_zero.get(s["op"], True) and s.get("zero", False)

    run_job = defaultdict(float)
    for s in by_fn["run_job"]:
        run_job[s["op"]] += dur[s["id"]]
    walls = job_walls or {}

    return {
        "rootsys.build_s": total("build_root_system"),
        "rootsys.positive_roots": per_system(["build_root_system"], "positive_roots"),
        "rootsys.root_triples": per_system(["build_root_system"], "root_triples"),
        "chevalley.constants_s": total("chevalley_constants"),
        "chevalley.killing_s": total("killing_gram"),
        "chevalley.bracket_table_s": total("m_bracket_table"),
        "chevalley.bracket_calls": calls("bracket"),
        "chevalley.bracket_s": total("bracket"),
        "metric.build_s": total("build_metric"),
        "connection.assemble_s": total("assemble_tensor"),
        "connection.assemble_self_s": self_time("assemble_tensor"),
        "connection.u_bilinear_calls": calls("u_bilinear"),
        "connection.u_bilinear_s": total("u_bilinear"),
        "connection.nabla_s": total("nabla"),
        "connection.dim_m": per_system(["assemble_tensor", "nabla"], "dim"),
        "connection.nnz": sum(s["nnz"] for s in assembles),
        "connection.gamma_bytes_computed": sum(8 * s["dim"] ** 3 for s in assembles),
        "connection.useful_pair_ratio": (
            sum(s["useful_pairs"] for s in assembles) / pairs if pairs else 0.0),
        "connection.u_zero_ops": sum(u_zero.values()),
        "oracle.equivalence_s": equivalence,
        "oracle.equivalence_self_s": self_time("check_oracle_equivalence"),
        "oracle.closed_form_share": closed_form / equivalence if equivalence else 0.0,
        "oracle.u_oracle_calls": calls("u_oracle"),
        "oracle.torsion_s": total("check_torsion"),
        "oracle.metric_compat_s": total("check_metric_compat"),
        "oracle.lemma2_s": total("check_lemma2"),
        "su_realization.crosscheck_s": total("check_su_crosscheck"),
        "su_realization.crosscheck_self_s": self_time("check_su_crosscheck"),
        "su_realization.u_sun_calls": calls("u_sun"),
        "su_realization.u_sun_s": total("u_sun"),
        "su_realization.alignment_s": total("build_alignment"),
        "cli.import_s": total("import"),
        "cli.run_job_s": total("run_job"),
        "cli.serialize_s": total("tensor_triples", "write_report"),
        "cli.output_bytes": output_bytes,
        "cli.process_overhead_s": sum(wall - run_job[op] for op, wall in walls.items()),
        "trace.overhead_s": overhead_s,
    }
