"""Run one ptychokit CLI command with span recording.

Usage: python traced_cli.py RUN_ID SPANS_OUT COMMAND [ARGS...]

The command runs through ``ptychokit.cli.main`` exactly as
``python -m ptychokit`` runs it, with the calls listed in
``layers.targets()`` wrapped. Spans are written to SPANS_OUT when the
command ends, and the exit code is the command's own.
"""

import sys

from ptychokit import cli

import layers
from tracer import Tracer, dump_spans


def main() -> int:
    run_id, spans_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    try:
        with tracer.install(layers.targets()):
            return cli.main(argv)
    finally:
        dump_spans(spans_out, run_id, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
