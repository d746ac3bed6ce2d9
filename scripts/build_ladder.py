"""Cold-build stage ladder: the fastest of REPEAT cold builds per stage, on a fixed list of systems.

Stages, each timed from cold caches: the root system (``build_root_system``), the
structure constants (``chevalley_constants``), the Killing form (``killing_gram``) and
the bracket entries (``build_m_basis`` and ``m_bracket_entries``). After each build, a
warm-up metric (the normal one) runs the per-metric sequence once, so that the checks'
per-system tables are built; then the per-metric stages are timed on a fresh log-uniform
metric in [0.1, 10] drawn from a fixed seed: ``assemble_tensor``, ``build_metric`` and
the three checks (``check_oracle_equivalence``, ``check_torsion``,
``check_metric_compat``). One more cold build runs under ``tracemalloc``; it gives the
traced peak of the root-system stage and of the whole build, and the memory the root
system and the constants hold once built.

    python3 scripts/build_ladder.py --label change --out BENCH_build.json
    python3 scripts/build_ladder.py --src ../parent/src --label parent \
        --src src --label change --out BENCH_build.json

``--src`` points at the ``src`` directory to import ``flagconn`` from (default: the one
of this checkout), so one copy of the script measures two trees alike. Given twice, it
loads both trees in one process and alternates them system by system, the first tree
first on the even rows of the ladder, so that a slow phase of the host hits both.
``--label`` names each run in the output file, one per ``--src`` in the same order; a
run under another label already in the file is kept.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

LADDER = ([("A", r) for r in range(2, 11)] + [(f, r) for f in "BC" for r in range(2, 7)]
          + [("D", r) for r in range(3, 7)] + [("A", 20), ("D", 24), ("A", 40)])
STAGES = ("root_system", "constants", "killing", "bracket_entries")
METRIC_STAGES = ("assemble", "gram", "oracle_check", "torsion_check", "metric_check")
REPEAT = 7  # cold builds per system; the fastest of them is kept per stage
MIB = 2.0 ** 20


def _load(src: str, name: str):
    """The flagconn package of a src directory, imported under the given module name."""
    init = Path(src) / "flagconn" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def _caches(flagconn) -> list:
    """Every memoized function of the package."""
    import pkgutil

    mods = [importlib.import_module(f"{flagconn.__name__}.{m.name}")
            for m in pkgutil.iter_modules(flagconn.__path__)]
    found = {id(v): v for mod in mods for v in vars(mod).values()
             if callable(getattr(v, "cache_clear", None))}
    return list(found.values())


def _build(flagconn, caches, family, rank, marks):
    """One cold build; marks(stage) is called after each stage."""
    for cache in caches:
        cache.cache_clear()
    marks(None)
    rs = flagconn.build_root_system(family, rank)
    marks("root_system")
    sc = flagconn.chevalley_constants(rs)
    marks("constants")
    flagconn.killing_gram(rs, sc)
    marks("killing")
    flagconn.chevalley.m_bracket_entries(sc, flagconn.build_m_basis(rs))
    marks("bracket_entries")
    return rs, sc


def _one_metric(flagconn, rs, sc, spec, marks):
    """The per-metric sequence on one metric; marks(stage) is called after each stage."""
    mb, kf = flagconn.build_m_basis(rs), flagconn.killing_gram(rs, sc)
    marks(None)
    tensor = flagconn.assemble_tensor(sc, mb, spec)
    marks("assemble")
    gram = flagconn.build_metric(rs, kf, spec)
    marks("gram")
    flagconn.check_oracle_equivalence(rs, sc, spec)
    marks("oracle_check")
    flagconn.check_torsion(tensor, sc)
    marks("torsion_check")
    flagconn.check_metric_compat(tensor, gram)
    marks("metric_check")


def measure(flagconn, family: str, rank: int) -> dict:
    import numpy as np

    caches = _caches(flagconn)
    best = dict.fromkeys(STAGES + METRIC_STAGES, float("inf"))
    rng = np.random.default_rng(2022)
    for _ in range(REPEAT):
        last = []

        def timed(stage):
            now = perf_counter()
            if stage is not None:
                best[stage] = min(best[stage], now - last[-1])
            last.append(perf_counter())

        rs, sc = _build(flagconn, caches, family, rank, timed)
        _one_metric(flagconn, rs, sc, flagconn.MetricSpec.normal(rs), lambda stage: None)
        values = 10.0 ** rng.uniform(-1, 1, len(rs.positive_roots))
        _one_metric(flagconn, rs, sc, flagconn.MetricSpec.from_values(rs, values), timed)

    peaks = {}

    def traced(stage):
        if stage is None:
            gc.collect()
            tracemalloc.start()
            tracemalloc.reset_peak()
            peaks["base"] = tracemalloc.get_traced_memory()[0]
        else:
            current, peak = tracemalloc.get_traced_memory()
            peaks[stage] = (current - peaks["base"], peak - peaks["base"])

    try:
        _build(flagconn, caches, family, rank, traced)
    finally:
        tracemalloc.stop()
    for cache in caches:  # hold no tables while another tree is measured
        cache.cache_clear()
    return {
        **{f"{stage}_ms": round(best[stage] * 1e3, 4) for stage in STAGES},
        "build_ms": round(sum(best[stage] for stage in STAGES) * 1e3, 4),
        **{f"{stage}_us": round(best[stage] * 1e6, 2) for stage in METRIC_STAGES},
        "metric_us": round(sum(best[stage] for stage in METRIC_STAGES) * 1e6, 2),
        "root_system_peak_mib": round(peaks["root_system"][1] / MIB, 3),
        "build_peak_mib": round(max(peak for _, peak in
                                    (peaks[s] for s in STAGES)) / MIB, 3),
        "held_rs_sc_mib": round(peaks["constants"][0] / MIB, 3),
    }


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", help="src directory; at most twice")
    parser.add_argument("--label", action="append", help="run name, one per --src")
    parser.add_argument("--out", default=None, help="JSON file to merge the runs into")
    args = parser.parse_args(argv)
    srcs, labels = args.src or [str(here / "src")], args.label or ["change"]
    if len(srcs) > 2 or len(labels) != len(srcs):
        parser.error("give --src at most twice and one --label per --src")
    import numpy as np

    trees = [_load(src, "flagconn" if k == 0 else f"flagconn{k}") for k, src in enumerate(srcs)]
    runs = {label: {} for label in labels}
    for row_number, (family, rank) in enumerate(LADDER):
        order = list(zip(labels, trees))
        for label, flagconn in order if row_number % 2 == 0 else order[::-1]:
            runs[label][f"{family}{rank}"] = row = measure(flagconn, family, rank)
            print(f"{label} {family}{rank:<3} " + " ".join(f"{k} {v}" for k, v in row.items()),
                  flush=True)
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["about"] = {
            "command": ("python3 scripts/build_ladder.py --src SRC --label LABEL"
                        f" [--src SRC --label LABEL] --out {path.name}"),
            "times": (f"fastest of {REPEAT} cold builds per build stage, in ms, and of {REPEAT}"
                      " fresh metrics per metric stage, in us; build_ms and metric_us are sums"),
            "memory": "one more cold build under tracemalloc, MiB over the traced start",
            "order": "with --src twice, both trees run in one process, alternated by system",
        }
        doc["machine"] = {
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
        }
        doc.setdefault("runs", {}).update(runs)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
