"""Traced stand-in for `python -m ghw`: installs the layer wrappers, runs
ghw's own CLI on the given arguments and exits with its exit code.

    python3 perfbench/launch.py hierarchy --q 2 --m 5 --sets "1,2,3;3,4,5"

Standard output is exactly the CLI's.  The layer totals and spans go to
standard error as one last line that starts with layers.TRACE_MARK.
"""

import json
import sys

import layers
from worker import import_ghw


def main() -> int:
    import_ghw()
    import ghw.cli

    recorder = layers.install()
    try:
        code = ghw.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        payload = dict(layers.report(recorder), spans=recorder.spans)
        print("\n" + layers.TRACE_MARK + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
