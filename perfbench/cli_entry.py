"""Run one ``artifact`` command in this interpreter, as the console script does.

    python3 perfbench/cli_entry.py COMMAND ARGS...

The parent puts ``src`` on PYTHONPATH.  The one addition to the console
script is a last line on stderr, after MARKER: a JSON record with
``work_s``, the time spent inside the command once the interpreter and
the library are loaded.  With PERFBENCH_TRACE=1 in the environment the
layer spans are installed first and the record also carries their
aggregate, for the parent to merge.
"""

import json
import os
import sys
import time

MARKER = "perfbench "


def main():
    sys.argv[0] = "artifact"  # the program name click prints in usage text
    record = {}
    if os.environ.get("PERFBENCH_TRACE") == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        command = tracer.entry("cli", "main")
    else:
        tracer = None
        from artifact.cli import main as command
    start = time.perf_counter()
    try:
        return command()
    finally:
        record["work_s"] = time.perf_counter() - start
        if tracer is not None:
            record["edges"] = tracer.snapshot()
            record["tables"] = spans.read_tables()
        sys.stderr.write(MARKER + json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
