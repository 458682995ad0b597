"""Entry point of a traced child: ``traced_entry.py <out.json> <repro argv...>``.

Installs the same span wrappers as the in-process traced run, calls
``repro.__main__.main`` with the remaining arguments, and writes the
tracer's totals on SIGUSR1 and its full export (kept spans included) at
exit.  The benchmark asks for a dump only while the daemon is idle, so
every span below ``main`` is closed when it is taken.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import counts as bench_counts  # noqa: E402
from bench import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)

    # The daemon keeps its ControllerService in a local; remember the
    # instances so a dump can read the deployments' public counters.
    from repro.service.daemon import ControllerService
    services = []
    original_init = ControllerService.__init__

    def remembering_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        services.append(self)

    ControllerService.__init__ = remembering_init

    dumps = [0]

    def dump(*_signal_args, final: bool = False) -> None:
        # Mid-run dumps carry totals only: serialising the kept spans
        # would stall the daemon for longer than the requests it serves.
        dumps[0] += 1
        document = tracer.export()
        if not final:
            document["spans"] = []
        document["dump"] = dumps[0]
        document.update(_inside_view(services))
        tmp = f"{out_path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle)
        os.replace(tmp, out_path)

    signal.signal(signal.SIGUSR1, dump)
    tracer.enabled = True
    # Interpreter start-up and imports are the engine's cost too: one span
    # from this file's first line to the call of main().
    tracer.enter("startup", "engine", start=_STARTED)
    tracer.exit()
    from repro.__main__ import main as repro_main
    tracer.enter("__main__.main", "engine")
    try:
        return repro_main(argv)
    finally:
        tracer.exit()
        tracer.enabled = False
        dump(final=True)


def _inside_view(services) -> dict:
    """Counts and the honest-load gate, read from inside the daemon."""
    workers = [worker for service in services
               for worker in service.workers.values()
               if worker.stack is not None]
    if not workers:
        return {}
    p4auth = [w for w in workers if w.stack_name == "P4Auth"]
    violations = [v for v in (bench_counts.honest_load_violations(w.stack)
                              for w in p4auth) if v]
    return {
        "counts": bench_counts.deployment_counts(
            [w.sim for w in workers],
            [dp.switch for w in p4auth for dp in w.dataplanes.values()],
            [dp for w in p4auth for dp in w.dataplanes.values()],
            [w.stack for w in p4auth],
            [w.batch for w in workers if w.batch is not None]),
        "violations": violations,
    }


if __name__ == "__main__":
    sys.exit(main())
