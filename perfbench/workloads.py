"""Workload inputs, task execution and the output gate.

A task is a JSON list, such as ``["kron_table", 8]`` or
``["cli", "kron", "4,3,1", "3,3,2", "5,2,1"]``; its compact JSON text is its
key in ``goldens.json``.  Every task a seed can draw comes from a fixed pool,
and the goldens cover the whole pool, so the gate checks any seed.

This module imports nothing from ``artifact`` at load time: the parent
process generates and checks tasks without loading the library.
"""

import hashlib
import importlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("kron-table", "verify-sweep", "plethysm", "cli-point")
SCALES = ("full", "tiny")

# The three in-process workloads are fixed lists: their cost must not depend
# on the seed, and the order of a sweep changes which task pays for a shared
# memo.  cli-point draws its stream from the seed.
_FIXED = {
    ("kron-table", "full"): [["kron_table", 8]],
    ("kron-table", "tiny"): [["kron_table", 5]],
    ("verify-sweep", "full"): [
        ["property", "orthogonality", {"n": 8}],
        ["property", "transpose", {"n": 6}],
        ["property", "dimension-sum", {"n": 6}],
        ["property", "saxl", {"k": 4}],
        ["property", "char-bound", {"n": 10}],
        ["property", "pp20-bound", {"n": 7}],
        ["property", "murnaghan", {"max_size": 5}],
        ["property", "tworow", {"max_cells": 12}],
        ["property", "ip23", {"n": 4}],
        ["saturation", 3, 4, 100],
    ],
    ("verify-sweep", "tiny"): [
        ["property", "orthogonality", {"n": 4}],
        ["property", "transpose", {"n": 4}],
        ["property", "dimension-sum", {"n": 4}],
        ["property", "saxl", {"k": 2}],
        ["property", "char-bound", {"n": 5}],
        ["property", "pp20-bound", {"n": 4}],
        ["property", "murnaghan", {"max_size": 2}],
        ["property", "tworow", {"max_cells": 4}],
        ["property", "ip23", {"n": 2}],
        ["saturation", 3, 2, 35],
    ],
    ("plethysm", "full"): [
        *(["hn", d, n] for d, n in (
            (3, 2), (4, 2), (3, 3), (5, 2), (4, 3), (3, 4), (6, 2), (5, 3),
            (4, 4), (2, 6),
        )),
        *(["foulkes", d, n] for d, n in ((4, 2), (4, 3), (5, 3), (6, 2), (4, 4))),
        *(["pleth", inner, outer] for inner, outer in (
            ([2, 1], [2, 1]), ([1, 1, 1], [3]), ([2, 1], [1, 1, 1]),
            ([2], [3]), ([3], [2]), ([2, 1], [3]), ([2], [2, 2]), ([1, 1], [3]),
        )),
    ],
    ("plethysm", "tiny"): [
        ["hn", 2, 2], ["hn", 3, 2], ["hn", 2, 3], ["foulkes", 3, 2],
        ["pleth", [2], [2]], ["pleth", [1, 1], [2]],
    ],
}

# cli-point: every stream holds the same sixteen slow queries and a seeded
# sample of each light pool, in seeded order.  Thirteen of the slow ones ask
# for constituents of one plethysm, s_111[s_21], which costs about 0.25 s and
# the same for every constituent: p90 falls among them for every seed.  The
# two Kostka queries and the padded reduced_kron query sit below them.  Each
# light pool keeps its sizes fixed, so that every sample costs about the
# same.
_CLI_TAIL = [
    *("pleth %s 2,1 1,1,1" % target for target in (
        "6,1^3", "5,3,1", "5,2^2", "5,2,1^2", "4^2,1", "4,3,2", "4,3,1^2",
        "4,2^2,1", "4,2,1^3", "3^3", "3^2,2,1", "3^2,1^3", "3,2^3",
    )),
    "kostka 6,5,3,2 2^8",
    "kostka 7,4,3,2 2^8",
    "rkron 3,1 2,1 2,1,1",
]


def _partition(rng, n, max_parts=None):
    """A random partition of n with at most max_parts parts."""
    while True:
        parts, left = [], n
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        if max_parts is None or len(parts) <= max_parts:
            return sorted(parts, reverse=True)


def _fmt(*partitions):
    return " ".join(",".join(map(str, p)) for p in partitions)


def _light_pools():
    """command -> (draws per stream, pool); each query does little work."""
    rng = random.Random("perfbench cli-point pool")
    char = [_fmt(_partition(rng, 12), _partition(rng, 12)) for _ in range(24)]
    kostka = [_fmt(_partition(rng, 10), _partition(rng, 10, 4)) for _ in range(18)]
    lr = []
    for i in range(18):
        mu, nu = _partition(rng, 6), _partition(rng, 6)
        if i % 2:
            lam = sorted(mu + nu, reverse=True)
        else:
            width = max(len(mu), len(nu))
            lam = [(mu[j] if j < len(mu) else 0) + (nu[j] if j < len(nu) else 0)
                   for j in range(width)]
        lr.append(_fmt(lam, mu, nu))
    kron = [_fmt(*(_partition(rng, 7) for _ in range(3))) for _ in range(24)]
    rkron = []
    while len(rkron) < 18:
        trio = [_partition(rng, rng.randint(1, 3)) for _ in range(3)]
        # padding size n0 as kronecker.padding_threshold computes it
        if 13 <= sum(map(sum, trio)) + sum(p[0] for p in trio) + 1 <= 16:
            rkron.append(_fmt(*trio))
    pairs = [((2,), (3,)), ((3,), (2,)), ((1, 1), (3,)), ((3,), (1, 1)),
             ((2,), (2, 1)), ((2, 1), (2,)), ((1, 1), (2, 1))]
    pleth = []
    for _ in range(15):
        inner, outer = rng.choice(pairs)
        pleth.append(_fmt(_partition(rng, 6), inner, outer))
    hn = ["%d %d" % (d, n) for d in range(1, 9) for n in range(1, 9)
          if 4 <= d * n <= 8 and n <= 4 and (d, n) != (4, 2)]
    return {
        "char": (15, sorted(set(char))),
        "kostka": (12, sorted(set(kostka))),
        "lr": (12, sorted(set(lr))),
        "kron": (15, sorted(set(kron))),
        "rkron": (10, sorted(set(rkron))),
        "pleth": (10, sorted(set(pleth))),
        "pleth-hn": (10, hn),
    }


# 16 fixed + 84 light = 100 queries a stream, so ten lie beyond p90.
_CLI_LIGHT = _light_pools()
_CLI_TINY = [
    "char 5,3,1 3,3,2,1", "kostka 4,3,2 2,2,2,1,1,1",
    "lr 5,4,3,2,1 3,2,1 4,3,2", "kron 2,2,1 3,1,1 3,2", "rkron 2 1 1",
    "pleth 4,2 2 3", "pleth-hn 3 2",
]


def _cli(line):
    return ["cli", *line.split()]


def tasks(workload, seed, scale="full"):
    """The task list one run executes, made from the seed alone."""
    if workload != "cli-point":
        return [list(t) for t in _FIXED[workload, scale]]
    rng = random.Random("%s:%d:%s" % (workload, seed, scale))
    if scale == "tiny":
        lines = list(_CLI_TINY)
    else:
        lines = list(_CLI_TAIL)
        for command, (draws, pool) in _CLI_LIGHT.items():
            lines += [command + " " + args for args in rng.sample(pool, draws)]
    rng.shuffle(lines)
    return [_cli(line) for line in lines]


def pool(workload, scale):
    """Every task any seed can draw; the goldens cover exactly these."""
    if workload != "cli-point":
        return tasks(workload, 0, scale)
    if scale == "tiny":
        return [_cli(line) for line in _CLI_TINY]
    lines = list(_CLI_TAIL)
    for command, (_, light) in _CLI_LIGHT.items():
        lines += [command + " " + args for args in light]
    return [_cli(line) for line in lines]


def key(task):
    return json.dumps(task, separators=(",", ":"))


# -- running a library task ----------------------------------------------------


def plain(layer, name):
    """Look a public function up with no tracing."""
    return getattr(importlib.import_module("artifact." + layer), name)


def run_task(task, lib):
    """Run one in-process task; ``lib(layer, name)`` supplies each function.

    Returns the raw result, fully built, so the caller can time this call
    alone and serialise afterwards.
    """
    kind, *args = task
    if kind == "kron_table":
        return lib("kronecker", "kron_table")(*args)
    if kind == "property":
        return lib("verify", "run_property")(*args).to_json()
    if kind == "saturation":
        return lib("verify", "search_saturation_counterexample")(*args).to_json()
    if kind == "hn":
        return lib("plethysm", "pleth_hn_expansion")(*args).coeffs
    if kind == "foulkes":
        return lib("plethysm", "foulkes_violations")(*args)
    if kind == "pleth":
        inner, outer = (tuple(p) for p in args)
        coefficient = lib("plethysm", "pleth_coefficient")
        degree = sum(inner) * sum(outer)
        return [
            (lam, coefficient(lam, inner, outer))
            for lam in lib("partitions", "enumerate_partitions")(degree)
        ]
    raise ValueError("unknown task kind %r" % (kind,))


def _decimal(obj):
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return sorted([_decimal(k), _decimal(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_decimal(x) for x in obj]
    return obj


def canonical(result):
    """Decimal-string JSON of a task result, with run times left out."""
    if isinstance(result, dict) and "elapsed_ms" in result:
        result = {k: v for k, v in result.items() if k != "elapsed_ms"}
        return json.dumps(result, sort_keys=True, separators=(",", ":"))
    return json.dumps(_decimal(result), separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(returncode, stdout):
    """Digest of a CLI query: its exit code and its stdout bytes."""
    return hashlib.sha256(b"exit %d\n" % returncode + stdout).hexdigest()


# -- the output gate -------------------------------------------------------------


def load_goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)["digests"]


class Gate:
    """Counts operations and those whose digest misses its golden."""

    def __init__(self, goldens):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, task_key, got):
        self.attempted += 1
        if self.goldens.get(task_key) != got:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append([task_key, got])

    def lost(self, count):
        """Operations of a process that died before reporting them."""
        self.attempted += count
        self.failed += count
