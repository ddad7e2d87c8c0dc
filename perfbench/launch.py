"""Run the kgdecay CLI, recording when its suites start; optionally traced.

    PYTHONPATH=src python3 perfbench/launch.py OUT_JSON TRACE [kgdecay arguments...]

The process runs the real ``kgdecay.cli.main``.  ``run_selected_suites`` is
wrapped in ``kgdecay.cli`` so that the ``time.monotonic()`` reading at which
the suites begin is recorded; the launching process takes the set-up time
as that reading minus its own reading just before the launch (both clocks
are the system-wide monotonic clock).  With TRACE = 1 the layers' public
functions are timed as well, by ``tracer.py``.

On exit OUT_JSON holds ``suites_start`` (null if the suites never began)
and ``trace`` (null when untraced), and the CLI's exit code is returned.
Nothing in the package's source changes, and ``summary.json`` is written
exactly as by ``python3 -m kgdecay.cli``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    if len(argv) < 2 or argv[1] not in ("0", "1"):
        print("usage: launch.py OUT_JSON {0,1} [kgdecay arguments...]", file=sys.stderr)
        return 2
    out_path, traced, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    from kgdecay import cli

    record = {"suites_start": None, "trace": None}
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    run_suites = getattr(cli, "run_selected_suites", None)
    if run_suites is None:
        print("launch: kgdecay.cli has no run_selected_suites", file=sys.stderr)
    else:
        def mark_start(config):
            record["suites_start"] = time.monotonic()
            return run_suites(config)

        cli.run_selected_suites = mark_start
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            record["trace"] = tracer.to_dict()
        out_path.write_text(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
