"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python serve_traced.py OUT.json serve --checkpoint DIR ...``

Installs :func:`layers.install_serve_layers`, runs the ordinary CLI with
the remaining arguments, and on exit writes the span aggregates and the
kept spans (Chrome trace events) to ``OUT.json`` for the benchmark to
merge.  ``repro.obs`` stays off, exactly as in the untraced server.
"""

from __future__ import annotations

import atexit
import json
import sys


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from layers import install_serve_layers
    from spans import Patcher, SpanRecorder

    from repro import obs
    from repro.cli import main as cli_main

    recorder = SpanRecorder()
    patcher = Patcher(recorder)
    install_serve_layers(patcher)

    def dump() -> None:
        with open(out, "w") as fh:
            json.dump({
                "aggregates": recorder.snapshot(),
                "events": recorder.chrome_trace(),
                "missing": patcher.missing,
                "obs_enabled": obs.OBS.enabled,
            }, fh)

    atexit.register(dump)
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
