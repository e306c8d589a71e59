"""Run one grfilt command line as a benchmark job, in this process.

    python3 perfbench/child.py ROOT RECORD TRACE GRFILT-ARGS...

Imports grfilt from ROOT/src, stamps the times at which start-up (the
interpreter and the standard modules grfilt imports) ends and at which the
subcommand handler is entered (CLOCK_MONOTONIC, the clock the parent read
just before spawning this process), installs the layer tracer when TRACE
is 1, runs grfilt.cli.main on GRFILT-ARGS and exits with its code.  RECORD receives {"started": <clock>, "entry": <clock>,
"trace": <tracer snapshot or null>} as JSON.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import json
import os
import sys
import time

# Start-up of the interpreter and of the standard modules grfilt imports,
# which no change to grfilt can move, ends here.
STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    root, record_path, trace = sys.argv[1:4]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import grfilt.cli as cli
    if os.path.dirname(os.path.dirname(cli.__file__)) != src:
        print(f"grfilt was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 1

    tracer = None
    if trace == "1":
        from tracer import Tracer, install
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "layer_map.json")) as fh:
            entries = json.load(fh)["entries"]
        tracer = Tracer()
        install(tracer, [f for e in entries for f in e["functions"]])

    entry = []

    def stamped(handler):
        def run(args):
            entry.append(_clock())
            return handler(args)
        return run

    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        setattr(cli, name, stamped(getattr(cli, name)))

    code = cli.main(sys.argv[4:])
    sys.stdout.flush()
    with open(record_path, "w") as fh:
        json.dump({"started": STARTED, "entry": entry[0] if entry else None,
                   "trace": tracer.snapshot() if tracer else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
