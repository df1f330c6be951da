"""Scale measured times to a fixed machine speed.

On a shared machine other tenants slow code down, for seconds to minutes at
a time, by up to 1.75x (measured on 2 vCPUs of an Intel Xeon at 2.1 GHz,
where a loop's CPU time rose with its wall time).  A fixed reference timed
next to a measurement, on the same CPU, slows by about the same factor, so
the benchmark reports ``seconds * nominal / reference``: the time the
measurement would have taken at the speed where the reference takes its
nominal time.  Neither reference uses library code, so no change to the
library can move them.

Computing and starting an interpreter respond differently to the same
neighbours, so each has its own reference.  Over 150 s, the ratio of a CLI
query's wall time to ``start_s`` moved by 2-5% between windows, and its
ratio to ``reference_s`` by 26-36%.  The loop tracked library computing
within 11-15%, and its ratio to library computing held across slow and fast
spells.
"""

import subprocess
import sys
import time

LOOP_S = 0.0029  # reference_s() on that Xeon vCPU when unloaded (10th percentile)
START_S = 0.06  # start_s() on that Xeon vCPU when unloaded, about


def reference_s():
    """Seconds the reference loop takes now.

    The loop mixes small tuples, dict lookups and updates, int-to-str and
    sorting.  A plain arithmetic loop tracked slowdowns of library code less
    well.
    """
    start = time.perf_counter()
    counts = {}
    for j in range(6000):
        key = (j % 97, j % 13)
        counts[key] = counts.get(key, 0) + len(str(j))
        sorted((j, j ^ 5, 3))
    return time.perf_counter() - start


def start_s():
    """Seconds an interpreter takes now to start, import click and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import click"], check=True)
    return time.perf_counter() - start


def scaled(seconds, ref):
    """A computing time, given the reference loop's time next to it."""
    return seconds * LOOP_S / ref
