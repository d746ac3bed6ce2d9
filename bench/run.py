"""flagconn benchmark: one workload per run, end-to-end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {cli-verify,metric-sweep,nabla-queries}
                         --seed N --seconds S --trace {0,1}

The program under test is the checkout's ``src/flagconn``. With ``--trace 0``
the run times a fixed, seeded list of inputs round after round for S seconds
and reports the end-to-end metrics named in ``BENCHMARK.json``. With
``--trace 1`` it runs each input of that list twice, without and then with spans
around flagconn's public functions, reports the per-layer metrics and writes
the spans to ``bench/.out/spans-<workload>.jsonl``. Every operation passes through a
correctness gate. The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# Pin BLAS before numpy is first imported (in main), here and in every child process.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"

SETUP_REPS = 15  # cold set-ups timed per run, spread over the run
TAIL_BEYOND = 10  # the tail is the highest percentile with this many inputs beyond it
MIN_ROUNDS = 2  # every input is timed at least this often


def _environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **BLAS_THREADS}


def _tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND of ``times`` beyond it, or the largest."""
    n = len(times)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return sorted(times)[n - 1 - beyond], f"p{100.0 * (n - beyond) / n:.2f}, {beyond} of {n} inputs beyond"


def measure(wl, seconds: float) -> tuple[dict, list[str], int, int]:
    """End-to-end metrics over rounds of the run's inputs lasting ``seconds``.

    A run draws a fixed list of inputs from the seed and runs all of them, in
    order, round after round. Each input's time is its fastest round. A shared
    host runs the same code up to about 1.7 times slower for seconds to
    minutes at a time; a median follows the share of the run that was slow,
    while an input's fastest round, taken from rounds spread over the whole
    run, follows the program. Set-ups are spread over the run between
    operations, and ``setup_s`` is the fastest of them for the same reason.
    """
    setup: list[float] = []

    def set_up() -> None:
        setup.append(wl.cold_setup())
        wl.prepare()

    set_up()
    work = [(f"{b}.{i}", item) for b in range(wl.blocks) for i, item in enumerate(wl.block(b))]
    best = [float("inf")] * len(work)
    passed = [True] * len(work)
    attempted = failed = rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        for k, (op, item) in enumerate(work):
            elapsed, ok = wl.run_op(item, op, None)
            best[k] = min(best[k], elapsed)
            passed[k] = passed[k] and ok
            attempted += 1
            failed += not ok
            due = 1 + (SETUP_REPS - 1) * min(1.0, (perf_counter() - start) / seconds)
            if len(setup) < due:
                set_up()
        rounds += 1
    wall = perf_counter() - start
    while len(setup) < SETUP_REPS:
        set_up()

    tail, tail_note = _tail(best)
    metrics = {
        "setup_s": min(setup),
        "ops_per_s": sum(passed) / sum(best),
        "op_p50_s": statistics.median(best),
        "op_tail_s": tail,
        "peak_rss_mb": wl.rss_mb(),
    }
    unit = wl.nouns
    notes = [
        f"setup_s {metrics['setup_s']:.6g} s (fastest of {SETUP_REPS}; median {statistics.median(setup):.6g} s)",
        f"{unit[0]}_per_s {metrics['ops_per_s']:.6g} 1/s (as run, gates and set-ups included: {attempted / wall:.6g} 1/s)",
        f"{unit[1]}_p50_s {metrics['op_p50_s']:.6g} s",
        f"{unit[1]}_tail_s {tail:.6g} s ({tail_note})",
        f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
        f"failed_share {failed / attempted:.6g} ({failed} of {attempted})",
        f"{len(work)} inputs ({wl.blocks} blocks), each timed in {rounds} rounds over {wall:.3f} s",
    ]
    return metrics, notes, attempted, failed


def trace(wl) -> tuple[dict, list[str], int, int]:
    """Per-layer metrics from traced operations, and their overhead over untraced ones."""
    from tracer import Tracer, layer_metrics, write_spans

    tracer = Tracer()
    if wl.in_process:
        tracer.install()
        tracer.op = "setup"
    wl.cold_setup()
    tracer.uninstall()
    wl.prepare()
    work = [(f"{b}.{i}", item) for b in range(wl.blocks) for i, item in enumerate(wl.block(b))]
    # each operation runs untraced and then traced, so that drift in the
    # machine's speed falls on both sides of the overhead alike
    oks, walls = [], [0.0, 0.0]
    for op, item in work:
        for traced in (False, True):
            if traced and wl.in_process:
                tracer.install()
            elapsed, ok = wl.run_op(item, op, tracer if traced else None)
            tracer.uninstall()
            walls[traced] += elapsed
            oks.append(ok)
    metrics = layer_metrics(tracer.spans, wl.job_walls, wl.output_bytes, walls[1] - walls[0])
    spans_path = OUT / f"spans-{wl.name}.jsonl"
    write_spans(str(spans_path), tracer.spans)
    notes = [f"{len(work)} operations untraced in {walls[0]:.3f} s, traced in {walls[1]:.3f} s",
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, notes, len(oks), len(oks) - sum(oks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "flagconn" / "__init__.py").is_file():
        print(f"error: no flagconn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flagconn
    from workloads import WORKLOADS

    if not Path(flagconn.__file__).resolve().is_relative_to(SRC):
        print(f"error: flagconn was imported from {flagconn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, tmp, env)
        run = trace if args.trace else lambda w: measure(w, args.seconds)
        metrics, notes, attempted, failed = run(wl)
        reproduced = wl.inputs_reproduce()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    if not reproduced:
        print("error: regenerating the inputs from the seed gave different bytes", file=sys.stderr)
        return 1
    env_line = " ".join(f"{k}={v}" for k, v in _environment().items())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; {env_line}")
    for line in notes:
        print(f"  {line}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
