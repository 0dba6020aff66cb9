"""Run one dyckposet CLI command with the benchmark's tracer installed.

    python3 bench/cli_child.py TRACE_FILE OP_ID PARENT_SPAN_ID ARGV...

stdout, stderr and the exit code are the CLI's own.  The trace of the
command (aggregates and span records, see spans.py) is written to
TRACE_FILE as JSON; its root span is `cli.main`, child of PARENT_SPAN_ID.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    trace_file, op_id, parent_id, *argv = sys.argv[1:]
    from dyckposet import cli

    tracer = spans.Tracer(id_prefix=f"{op_id}/")
    tracer.op = op_id
    with spans.installed(tracer):
        traced_main = tracer.wrap("cli.main", cli.main, record=True, parent_id=parent_id or None)
        code = traced_main(argv)
    sys.stdout.flush()
    Path(trace_file).write_text(json.dumps(tracer.to_json_dict()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
