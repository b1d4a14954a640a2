"""Run one pcrefine CLI command with the tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <pcrefine arguments...>
The spans are written to SPANS_JSON when the command ends.
"""

import sys

from pcrefine.cli import main
from tracer import Tracer


def run() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(run())
