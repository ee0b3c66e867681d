"""Run one ballquant CLI command with the tracer installed.

Usage: python cli_child.py <ballquant arguments>, with ``src`` on
PYTHONPATH.  Stdout and the exit code are those of the command; the
trace summary goes to stderr as one line after ``TRACE_PREFIX``.
"""
import json
import sys

import ballquant.cli
import tracer


def main() -> int:
    tr = tracer.Tracer()
    tr.install()
    try:
        return ballquant.cli.main(sys.argv[1:])
    finally:
        tr.uninstall()
        sys.stdout.flush()
        sys.stderr.write(tracer.TRACE_PREFIX + json.dumps(tr.summary(), sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
