"""Run one flagconn CLI job with spans around its public functions.

Usage: python3 bench/traced_cli.py SPANS_PATH [flagconn arguments ...]

Behaves like the ``flagconn`` console script, and writes the job's spans
to SPANS_PATH as JSON lines. The first span times ``import flagconn.cli``.
"""

import sys
from time import perf_counter

from tracer import Tracer, write_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = perf_counter()
    import flagconn.cli

    tracer.record("cli.import", start, perf_counter())
    tracer.install()
    try:
        return flagconn.cli.main(argv)
    finally:
        write_spans(spans_path, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
