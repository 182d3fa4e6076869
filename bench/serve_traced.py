"""Run `telemetry-serve` with the benchmark's layer wrappers installed.

Usage: serve_traced.py SPANS_JSON [telemetry-serve arguments...]

SIGTERM shuts the server down cleanly; the spans recorded in this process
are then written to SPANS_JSON for the benchmark to merge.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from showersim.telemetry import server  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return server.main(argv)
    except KeyboardInterrupt:  # SIGTERM before serve_forever was reached
        return 0
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
