"""Run one benchmark operation with span wrappers around gimtools' layers.

Usage: python traced.py SPANS.json -m gimtools ARGS...
       python traced.py SPANS.json SCRIPT ARGS...

The operation runs exactly as it would untraced (the CLI's ``main`` or the
script as ``__main__``); the spans are written to SPANS.json when it ends,
and the exit code is the operation's.
"""

import runpy
import sys

import layers
from spans import Tracer


def main(argv):
    spans_path, *command = argv
    tracer = Tracer()
    layers.install(tracer)
    try:
        if command[:2] == ["-m", "gimtools"]:
            from gimtools import cli

            code = cli.main(command[2:])
        else:
            sys.argv = command
            try:
                runpy.run_path(command[0], run_name="__main__")
                code = 0
            except SystemExit as stop:
                code = stop.code
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
