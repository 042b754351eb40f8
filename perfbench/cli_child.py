"""Run one cycflats CLI command under the tracer (the traced cli run).

Usage: python cli_child.py SPAN_FILE ARGS...

Behaves as `python -m cycflats.cli ARGS...` and writes the child's spans
and counts to SPAN_FILE when it ends, also when the command raises.
"""

import json
import sys

import cycflats.cli

from tracer import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cycflats.cli.main(argv)
    finally:
        with open(span_file, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
