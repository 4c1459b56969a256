"""Run one monoforge command with the tracer installed and save its spans.

Usage: python perfbench/clitrace.py SPANS_JSON <monoforge arguments...>

The traced run of a workload starts its CLI jobs through this file instead
of ``python -m monoforge.cli``, so the spans of the fresh process (fileio,
cli and the layers below) join the run's trace.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    import monoforge.cli

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return monoforge.cli.main(sys.argv[2:])
    finally:
        tracer.active = False
        sys.stdout.flush()
        Path(sys.argv[1]).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
