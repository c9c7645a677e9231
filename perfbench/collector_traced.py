"""The traced collector: ``python -m repro.serve`` with layer spans.

Usage: ``python3 perfbench/collector_traced.py SPANS.npz REGISTRY.json
[repro-serve flags...]``.  Wraps the collector's entry points (see
``layers.install_collector``), turns on the process metrics registry so
the collector's own drain timings exist for the ledger cross-check, runs
the standalone collector until SIGINT, then writes the span table and
the registry snapshot.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder  # noqa: E402
from layers import install_collector  # noqa: E402


def main(argv) -> int:
    spans_path, registry_path, serve_argv = argv[0], argv[1], argv[2:]
    from repro import obs
    from repro.cli import serve_main

    recorder = Recorder()
    install_collector(recorder)
    obs.enable()
    try:
        return serve_main(serve_argv)
    finally:
        recorder.unwrap_all()
        recorder.save(spans_path)
        Path(registry_path).write_text(json.dumps(obs.get_registry().snapshot()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
