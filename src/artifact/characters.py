"""Exact symmetric-group characters via the Murnaghan-Nakayama recursion.

The recursion runs on beta-numbers (first-column hook lengths): removing a
rim hook of length t from a shape replaces one beta b by b - t, which must
stay nonnegative and distinct from the others, and the height of the hook
equals the number of betas lying strictly between b - t and b.  Cycle-type
parts are consumed largest-first, so the remaining type is always a suffix
of the sorted input and memo entries are shared across every query made in
a process (a whole-table sweep re-uses almost all of them).
"""

import json
from dataclasses import dataclass
from math import factorial
from operator import mul

from .partitions import (
    SizeMismatchError,
    check_partition,
    class_size,
    enumerate_partitions,
)

_memo = {}
_kernels = {}
_memo_cap = None
_inserts = 0

# Crude per-entry byte estimate for the optional cap: two small tuples, a
# dict slot and an int.  Eviction is wholesale; correctness never depends
# on the cache, only speed does.
_ENTRY_BYTES = 256
_CHECK_EVERY = 4096


def clear_memo():
    """Drop all cached character values, kernel rows included."""
    _memo.clear()
    _kernels.clear()


def set_memo_cap(max_bytes=None):
    """Cap the memo table at roughly max_bytes (None = unbounded)."""
    global _memo_cap
    _memo_cap = max_bytes


def _betas(shape):
    ell = len(shape)
    return tuple(shape[i] + ell - 1 - i for i in range(ell))


def _from_betas(betas):
    ell = len(betas)
    parts = [b - (ell - 1 - i) for i, b in enumerate(betas)]
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def _char(shape, alpha):
    if not alpha:
        return 1
    key = (shape, alpha)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    t, rest = alpha[0], alpha[1:]
    betas = _betas(shape)
    bset = set(betas)
    total = 0
    for b in betas:
        c = b - t
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in bset if c < x < b)
        child = _from_betas(sorted((bset - {b}) | {c}, reverse=True))
        term = _char(child, rest)
        total += -term if height & 1 else term
    _memo[key] = total
    global _inserts
    _inserts += 1
    if (
        _memo_cap is not None
        and _inserts % _CHECK_EVERY == 0
        and len(_memo) * _ENTRY_BYTES > _memo_cap
    ):
        clear_memo()
    return total


def character(lam, alpha):
    """Character value chi^lam(alpha), exact.

    Both arguments are partitions of the same integer; alpha is the cycle
    type.  Raises SizeMismatchError when the sizes differ.
    """
    check_partition(lam)
    check_partition(alpha)
    if sum(lam) != sum(alpha):
        raise SizeMismatchError(
            "cycle type %r does not match |shape| = %d" % (alpha, sum(lam))
        )
    return _char(lam, tuple(sorted(alpha, reverse=True)))


class CharKernel:
    """Classes of S_n in enumerate_partitions order, their sizes, and n!.

    Rows chi^lam (lam validated by the caller) are int tuples built on first
    request, so one Kronecker query costs three rows, never the whole table.
    """

    def __init__(self, n):
        self.classes = tuple(enumerate_partitions(n))
        self.sizes = tuple(map(class_size, self.classes))
        self.order = factorial(n)
        self.rows = {}

    def row(self, lam):
        cached = self.rows.get(lam)
        if cached is None:
            cached = self.rows[lam] = tuple(_char(lam, a) for a in self.classes)
        return cached

    def weighted(self, lam, mu):
        """The tuple |C_a| * chi^lam(a) * chi^mu(a) over the classes a."""
        return tuple(map(mul, self.sizes, map(mul, self.row(lam), self.row(mu))))


def char_kernel(n):
    """The shared CharKernel of S_n (dropped by clear_memo)."""
    return _kernels.get(n) or _kernels.setdefault(n, CharKernel(n))


@dataclass
class CharTable:
    """Full character table of S_n with deterministic row/column order."""

    n: int
    columns: tuple
    rows: dict

    def to_jsonl(self):
        """Yield one JSON line per row; values as decimal strings."""
        for lam in self.columns:
            yield json.dumps(
                {
                    "partition": [str(p) for p in lam],
                    "values": [str(self.rows[lam][a]) for a in self.columns],
                }
            )


def character_table(n, limit=22):
    """All chi^lam(alpha) for lam, alpha |- n, in enumerate_partitions order.

    The limit is a resource guard, not a correctness bound; raise it
    explicitly for bigger sweeps.
    """
    if n < 1:
        raise ValueError("character_table needs n >= 1, got %d" % n)
    if n > limit:
        raise ValueError(
            "character_table(%d) exceeds the limit %d; pass limit= to override"
            % (n, limit)
        )
    kern = char_kernel(n)
    rows = {lam: dict(zip(kern.classes, kern.row(lam))) for lam in kern.classes}
    return CharTable(n, kern.classes, rows)


def rim_hook_heights(filling, cycle_type):
    """Total height of a rim-hook tableau, or ValueError if inadmissible.

    `filling` is a tuple of rows of letters (1-based); letter k must occupy
    cycle_type[k-1] cells forming a rim hook (edge-connected, no 2x2 block),
    and the cells with letters <= k must form a Young diagram for every k.
    The height of one hook is the number of rows it spans minus one.
    """
    cells = {}
    for i, row in enumerate(filling):
        for j, v in enumerate(row):
            cells[(i, j)] = v
    letters = len(cycle_type)
    if any(t < 1 for t in cycle_type):
        raise ValueError("cycle type parts must be positive")
    counts = [0] * (letters + 1)
    for v in cells.values():
        if not 1 <= v <= letters:
            raise ValueError("letter %r out of range" % (v,))
        counts[v] += 1
    if counts[1:] != list(cycle_type):
        raise ValueError(
            "letter multiplicities %r do not match type %r"
            % (counts[1:], tuple(cycle_type))
        )
    total = 0
    for k in range(1, letters + 1):
        region = {c for c, v in cells.items() if v == k}
        inner = {c for c, v in cells.items() if v <= k}
        # the union of the first k letters must be a left-justified diagram
        rowlens = {}
        for i, j in inner:
            rowlens[i] = rowlens.get(i, 0) + 1
        if sorted(rowlens) != list(range(len(rowlens))):
            raise ValueError("letters <= %d skip a row" % k)
        for i, ln in rowlens.items():
            if any((i, j) not in inner for j in range(ln)):
                raise ValueError("letters <= %d are not left-justified" % k)
            if i and rowlens[i - 1] < ln:
                raise ValueError("letters <= %d do not form a diagram" % k)
        # the k-region itself must be a rim hook
        if any(
            {(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)} <= region
            for i, j in region
        ):
            raise ValueError("letter %d contains a 2x2 block" % k)
        seen = set()
        stack = [next(iter(region))]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            i, j = c
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in region and nb not in seen:
                    stack.append(nb)
        if seen != region:
            raise ValueError("letter %d is not edge-connected" % k)
        total += len({i for i, _ in region}) - 1
    return total
