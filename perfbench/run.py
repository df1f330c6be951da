"""The repository's benchmark: one workload, measured, checked and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it loads ``artifact`` from ``src`` there.
Every workload runs in fresh serial interpreters, so no memo outlives a
process.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separately traced run; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed / attempted`` is the failed fraction: operations that
raised or whose output missed its golden digest.  README.md in this
directory says what each workload and metric is for.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads
from cli_entry import MARKER

ROOT = workloads.ROOT
HERE = workloads.HERE

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{"%s.%s" % (layer, kind): unit for layer in spans.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "characters.memo_entries": "count",
    "kronecker.coeffs": "count",
    "kronecker.engine_hit_ratio": "ratio",
    "tableaux.kostka_hit_ratio": "ratio",
    "tableaux.lr_hit_ratio": "ratio",
    "tableaux.skew_hit_ratio": "ratio",
    "plethysm.h_pleth_entries": "count",
    "verify.items_checked": "count",
    "cli.startup_ms": "ms",
    "trace_overhead_frac": "ratio",
}

SETUP_PROBES = 7  # setup_s is the median of this many fresh interpreters
STARTUP_PROBES = 5  # cli.startup_ms is the median of this many --help runs
MIN_PROCESSES = 3  # timed worker processes per in-process run, at least
RUN_LIMIT_S = 170  # a run gives up on its children after this long
START_EVERY = 12  # spawns between two reference interpreter starts


class BenchError(Exception):
    """The run cannot produce a result at all."""


class Run:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.gate = workloads.Gate(workloads.load_goldens())
        self.notes = []
        path = str(ROOT / "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path)
        self.env.pop("PERFBENCH_TRACE", None)
        self.traced_env = dict(self.env, PERFBENCH_TRACE="1")
        self.ref = speed.reference_s()
        self.starts = [speed.start_s() for _ in range(3)]
        self.spawns = 0

    def remaining(self):
        left = self.started + RUN_LIMIT_S - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded %d s" % RUN_LIMIT_S)
        return left

    def spawn(self, argv, env=None):
        """Run one child to completion: (process, spawn time, seconds, factors).

        The factors scale times taken in the child to the nominal machine
        speed (see speed.py): ``loop`` for computing, from the reference
        loop run before and after the child; ``start`` for starting an
        interpreter, from the median of the three latest reference starts,
        one of which is retaken every START_EVERY spawns.
        """
        self.spawns += 1
        if self.spawns % START_EVERY == 0:
            self.starts = self.starts[1:] + [speed.start_s()]
        before = self.ref
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=env or self.env,
                capture_output=True, timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("%s timed out" % " ".join(argv)) from exc
        seconds = time.monotonic() - spawned
        self.ref = speed.reference_s()
        factors = {
            "loop": speed.scaled(1.0, min(before, self.ref)),
            "start": speed.START_S / statistics.median(self.starts),
        }
        return proc, spawned, seconds, factors

    def worker(self, mode):
        a = self.args
        argv = [str(HERE / "worker.py"), a.workload, str(a.seed), a.scale, mode]
        proc, spawned, _, factors = self.spawn(argv)
        if proc.returncode != 0:
            self.notes.append(proc.stderr.decode(errors="replace").strip()[-400:])
            return None
        out = json.loads(proc.stdout.decode().splitlines()[-1])
        out["setup"] = (out["ready"] - spawned) * factors["start"]
        return out

    def setup_times(self):
        times = []
        for _ in range(SETUP_PROBES):
            out = self.worker("setup")
            if out is None:
                raise BenchError("set-up failed: %s" % self.notes[-1])
            times.append(out["setup"])
        return times

    def query(self, task, traced=False):
        """One CLI query in a fresh interpreter; (seconds, entry record).

        The time inside the command is scaled as computing, the rest of the
        query as starting an interpreter.
        """
        argv = [str(HERE / "cli_entry.py"), *task[1:]]
        proc, _, seconds, factors = self.spawn(argv, self.traced_env if traced else None)
        got = workloads.cli_digest(proc.returncode, proc.stdout)
        self.gate.check(workloads.key(task), got)
        last = proc.stderr.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
        record = json.loads(last[len(MARKER):]) if last.startswith(MARKER) else {}
        work = record.get("work_s", 0.0)
        record["work_s"] = work * factors["loop"]
        return (seconds - work) * factors["start"] + record["work_s"], record

    def startup_ms(self):
        times = []
        for _ in range(STARTUP_PROBES):
            _, _, seconds, factors = self.spawn([str(HERE / "cli_entry.py"), "--help"])
            times.append(seconds * factors["start"])
        return 1000 * statistics.median(times)


def _medians(times):
    """Each task's median time over its repeats in this run."""
    return [statistics.median(ts) for ts in times.values()]


def _percentiles_ms(values):
    if len(values) == 1:
        return 1000 * values[0], 1000 * values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return 1000 * q[4], 1000 * q[8]


def _peak_rss_mb():
    """Largest resident set of any child so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _timed_loop(run, step, minimum):
    """Call step(i) until the run's seconds are used, at least minimum times.

    A new step starts only if a median step still fits in the time left.
    """
    durations = []
    while True:
        elapsed = time.monotonic() - run.started
        if len(durations) >= minimum and (
            elapsed + statistics.median(durations) > run.args.seconds
        ):
            return
        begin = time.monotonic()
        step(len(durations))
        durations.append(time.monotonic() - begin)


def _collect(run, out, times):
    """Gate every task of every pass; times[i][key] gathers pass i's times."""
    for one_pass, into in zip(out["passes"], times):
        for task_key, seconds, got in one_pass["tasks"]:
            run.gate.check(task_key, got)
            into.setdefault(task_key, []).append(seconds)


def in_process_e2e(run):
    setups = run.setup_times()
    tasks = workloads.tasks(run.args.workload, run.args.seed, run.args.scale)
    cold, warm = {}, {}

    def step(_):
        out = run.worker("timed")
        if out is None:
            run.gate.lost(2 * len(tasks))
        else:
            _collect(run, out, (cold, warm))

    _timed_loop(run, step, MIN_PROCESSES)
    if not cold:
        raise BenchError("no worker finished: %s" % run.notes[-1:])
    cold_s = _medians(cold)
    p50, p90 = _percentiles_ms(cold_s)
    repeats = min(len(ts) for ts in cold.values())
    run.summary = "%d tasks, median of %d processes each" % (len(cold), repeats)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(cold_s),
        "warm_wall_s": sum(_medians(warm)),
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "peak_rss_mb": _peak_rss_mb(),
    }


def in_process_layers(run):
    tasks = workloads.tasks(run.args.workload, run.args.seed, run.args.scale)
    times = {"cold": {}, "traced": {}}
    layers = []

    def step(i):
        mode = ("cold", "traced")[i % 2]
        out = run.worker(mode)
        if out is None:
            run.gate.lost(len(tasks))
            return
        _collect(run, out, (times[mode],))
        if mode == "traced":
            metrics = spans.layer_metrics(out["edges"], out["tables"])
            metrics["verify.items_checked"] = out["passes"][0]["items_checked"]
            layers.append(metrics)

    _timed_loop(run, step, 4)  # at least two untraced and two traced workers
    if not times["cold"] or not layers:
        raise BenchError("no worker finished: %s" % run.notes[-1:])
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace_overhead_frac"] = (
        sum(_medians(times["traced"])) / sum(_medians(times["cold"])) - 1
    )
    metrics["cli.startup_ms"] = run.startup_ms()
    run.summary = "%d traced processes" % len(layers)
    return metrics


def cli_e2e(run):
    setups = run.setup_times()
    stream = workloads.tasks("cli-point", run.args.seed, run.args.scale)
    walls, works = {}, {}

    def step(_):
        for task in stream:
            seconds, record = run.query(task)
            task_key = workloads.key(task)
            walls.setdefault(task_key, []).append(seconds)
            works.setdefault(task_key, []).append(record["work_s"])

    _timed_loop(run, step, 2)
    per_query = _medians(walls)
    p50, p90 = _percentiles_ms(per_query)
    passes = min(len(ts) for ts in walls.values())
    run.summary = "%d queries, median of %d passes each" % (len(per_query), passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_query),
        "warm_wall_s": sum(_medians(works)),
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "peak_rss_mb": _peak_rss_mb(),
    }


def cli_layers(run):
    stream = workloads.tasks("cli-point", run.args.seed, run.args.scale)
    times = {False: {}, True: {}}
    edges, tables = [], []

    def step(_):
        for task in stream:
            for traced in (False, True):
                seconds, record = run.query(task, traced)
                times[traced].setdefault(workloads.key(task), []).append(seconds)
                if "edges" in record:
                    edges.append(record["edges"])
                    tables.append(record["tables"])

    _timed_loop(run, step, 1)
    if not edges:
        raise BenchError("no traced query reported its spans")
    metrics = spans.layer_metrics(spans.merge_edges(edges), spans.merge_tables(tables))
    metrics["verify.items_checked"] = 0  # no CLI query of the stream runs verify
    metrics["trace_overhead_frac"] = sum(_medians(times[True])) / sum(_medians(times[False])) - 1
    metrics["cli.startup_ms"] = run.startup_ms()
    run.summary = "%d traced queries" % len(edges)
    return metrics


def run_record(load_at_start, nproc):
    """Where and on what code the run happened; none of it is gated."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    src_lines = 0
    for path in sorted((ROOT / "src" / "artifact").glob("*.py")):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "git_sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_start": list(load_at_start),
        "src_lines": src_lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # tiny inputs for the benchmark's self-test; runs always use full
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "artifact" / "__init__.py").is_file():
        print("no src/artifact under %s: run from a checkout" % ROOT, file=sys.stderr)
        return 2
    load = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the run and its children, so that the reference loop timed
    # here runs where the children ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args)
    cli = args.workload == "cli-point"
    measure = {
        (False, 0): in_process_e2e, (False, 1): in_process_layers,
        (True, 0): cli_e2e, (True, 1): cli_layers,
    }[cli, args.trace]
    try:
        values = measure(run)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    gate = run.gate
    if not gate.attempted:
        print("benchmark failed: no operation ran", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print("run-record " + json.dumps(run_record(load, nproc)))
    print("%s seed %d scale %s trace %d: %s; failed_frac %.4g (%d/%d)" % (
        args.workload, args.seed, args.scale, args.trace, run.summary,
        gate.failed / gate.attempted, gate.failed, gate.attempted))
    for task_key, got in gate.mismatches:
        print("  mismatch %s -> %s" % (task_key, got))
    for note in run.notes:
        print("  worker error: %s" % note)
    for name, unit in units.items():
        print("  %-28s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
