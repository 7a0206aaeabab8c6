"""A traced ``crossnum`` CLI invocation in its own process.

    python3 crossbench/cli_child.py SPANS_PATH CLI_ARGS...

Behaves like ``python -m crossnum.cli CLI_ARGS...`` (same stdout, stderr and
exit code, tracebacks included) with the layer functions traced.  The spans
go to SPANS_PATH and the layer totals to SPANS_PATH + ".json", also when the
invocation dies with an exception.
"""

import json
import sys

import crossnum.cli
from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return crossnum.cli.main(argv)
    finally:
        tracer.write(spans_path)
        with open(spans_path + ".json", "w") as handle:
            json.dump(tracer.raw(), handle)


if __name__ == "__main__":
    sys.exit(main())
