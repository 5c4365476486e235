"""Start ``repro serve`` with the span recorders installed (the traced server).

Usage, from the root of a checkout::

    python3 perfbench/serve_launcher.py SPANS.json --port 0 --max-inflight 2

Arguments after the span file are passed to ``repro serve``.  On SIGTERM the
server writes its spans to the span file and exits.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path


def main() -> int:
    span_path, serve_args = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro import cli
    from tracer import Tracer

    tracer = Tracer().install()

    def stop(signum, frame):
        tracer.dump(span_path)
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    return cli.main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
