"""One fresh interpreter running an in-process workload.

    python3 perfbench/worker.py WORKLOAD SEED SCALE MODE

MODE is ``setup`` (stop before the first task), ``timed`` (a cold pass and
then an identical warm pass), ``cold`` (the cold pass only) or ``traced``
(the cold pass with layer spans).  The parent puts ``src`` on PYTHONPATH.
Prints one JSON object on stdout; ``ready`` is the CLOCK_MONOTONIC time at
which the first task starts, which the parent subtracts its spawn time from.
"""

import json
import sys
import time
from pathlib import Path

import spans
import speed
import workloads


def run_pass(tasks, lib):
    """Run every task once: its key, its scaled seconds and its output digest.

    The reference loop runs between tasks; a task's time is scaled by the
    faster of the two runs around it.
    """
    rows = []
    checked = 0
    ref = speed.reference_s()
    for task in tasks:
        begin = time.perf_counter()
        try:
            result = workloads.run_task(task, lib)
        except Exception as exc:  # an operation failed: the gate counts it
            seconds = time.perf_counter() - begin
            got = "error %r" % (exc,)
        else:
            seconds = time.perf_counter() - begin
            if isinstance(result, dict) and "checked_count" in result:
                checked += int(result["checked_count"])
            got = workloads.digest(workloads.canonical(result))
        after = speed.reference_s()
        rows.append([workloads.key(task), speed.scaled(seconds, min(ref, after)), got])
        ref = after
    return {"tasks": rows, "items_checked": checked}


def main(argv):
    workload, seed, scale, mode = argv[1], int(argv[2]), argv[3], argv[4]
    import artifact

    if workload == "cli-point":
        import artifact.cli  # what every query of the stream imports
    src = workloads.ROOT / "src"
    if src not in Path(artifact.__file__).resolve().parents:
        sys.exit("artifact was imported from %s, not from %s" % (artifact.__file__, src))
    tasks = workloads.tasks(workload, seed, scale)
    lib = workloads.plain
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        tracer.install()
        lib = tracer.entry
    full = spans.nonempty_tables()
    if full:
        sys.exit("memo tables not empty before the first task: %s" % ", ".join(full))
    out = {"ready": time.monotonic()}
    if mode != "setup":
        out["passes"] = [run_pass(tasks, lib)]
        if mode == "timed":
            out["passes"].append(run_pass(tasks, lib))
    if tracer is not None:
        out["edges"] = tracer.snapshot()
        out["tables"] = spans.read_tables()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
