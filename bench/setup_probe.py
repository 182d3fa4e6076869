"""The set-up a replay pays before its first tick, in a fresh interpreter.

Usage: setup_probe.py SCENARIO_FILE CONFIG_FILE [STORE_DIR]

Imports showersim the way `shower-sim run` does, parses the scenario, loads
the config and, given STORE_DIR (the direct path), creates the file-backed
store and its channel. The benchmark times the whole process.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from showersim import cli  # noqa: E402,F401  (the import `shower-sim run` pays)
from showersim.config import load_config  # noqa: E402
from showersim.scenario import parse_scenario  # noqa: E402
from showersim.telemetry.store import TelemetryStore  # noqa: E402


def main(argv) -> int:
    events = parse_scenario(Path(argv[0]).read_text(encoding="utf-8"))
    run_config = load_config(argv[1])
    if len(argv) > 2:
        store = TelemetryStore(argv[2])
        field_map = run_config.agent.field_map
        store.create_channel("shower", [field_map[pos] for pos in sorted(field_map)])
        store.close()
    return 0 if events else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
