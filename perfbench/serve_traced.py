"""Traced launcher for ``python -m repro serve``.

Usage::

    python3 perfbench/serve_traced.py TRACE_OUT ARTIFACT --port 0

Installs the layer tracer, then hands the remaining arguments to
``repro.api.cli.main(["serve", ...])``, so the server is the CLI's own
code path.  On SIGINT the CLI shuts down, and this launcher writes the
spans to ``TRACE_OUT``.  Span times use ``time.monotonic``, which is the
clock the load generator times with too.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.api.cli import main as cli_main  # noqa: E402

from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    trace_out, serve_args = Path(argv[0]), list(argv[1:])
    tracer = Tracer(clock=time.monotonic)
    tracer.install()
    try:
        status = cli_main(["serve", *serve_args])
    finally:
        tracer.restore()
    trace_out.write_text(json.dumps(tracer.dump()))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
