"""Exact symmetric-group characters via the Murnaghan-Nakayama recursion.

The recursion runs on the beta-set of a shape (its first-column hook
lengths, the abacus of James-Kerber 2.7) held as one int word: bit
lam_i + len(lam) - 1 - i is set for each part.  A rim hook of length t is
a set bit b >= t whose bit b - t is clear; removing it moves that bit down
by t, and its height is the number of set bits strictly between.  Zero
parts are trailing one bits, which are shifted out, so every shape has one
word.  Cycle-type parts are consumed largest-first, so the remaining type
is always a suffix of the sorted input and memo entries, keyed (word,
suffix), are shared across every query made in a process (a whole-table
sweep re-uses almost all of them).
"""

import json
from itertools import repeat
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

# Per-entry byte estimate for the optional cap: a dict slot, the key pair,
# the word and value ints and a share of the suffix tuples and kernel rows.
# tracemalloc over whole tables puts it at 126-146 bytes for n = 12-16.
# Eviction is wholesale; correctness never depends on the cache, only
# speed does.
_ENTRY_BYTES = 146
_CHECK_EVERY = 4096

# Largest n for which whole tables (character_table, kron_table and the
# table-sized verify sweeps) run without an explicit override.
TABLE_LIMIT = 22


class InternalConsistencyError(ArithmeticError):
    """An exactness assertion failed; results upstream cannot be trusted."""


def exact_quotient(total, divisor, *what):
    """total // divisor, which must be exact and nonnegative.

    Every structure constant here is a contraction or formula total divided
    by a known order (n!, |V|!, d! (m!)^d, a hook product).  A remainder or
    a negative quotient means broken arithmetic upstream, not bad input, so
    it raises InternalConsistencyError.  ``what`` is a format string and its
    arguments naming the quantity; it is formatted only on failure.
    """
    value, rem = divmod(total, divisor)
    if rem:
        check = "leaves remainder %d" % rem
    elif value < 0:
        check = "is negative"
    else:
        return value
    name = what[0] % what[1:]
    raise InternalConsistencyError("%s: %d / %d %s" % (name, total, divisor, check))


def clear_memo():
    """Drop all cached character values, kernel rows included."""
    _memo.clear()
    _kernels.clear()


def set_memo_cap(max_bytes=None):
    """Cap the memo table at roughly max_bytes (None = unbounded)."""
    global _memo_cap
    _memo_cap = max_bytes


def _word(lam):
    """The beta-set of lam as one int: bit lam_i + len(lam) - 1 - i per part."""
    ell = len(lam)
    w = 0
    for i, part in enumerate(lam):
        w |= 1 << (part + ell - 1 - i)
    return w


def _mn(w, alpha):
    """chi(alpha) for the shape with beta-set word w (bit 0 clear)."""
    if not alpha:
        return 1
    key = (w, alpha)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    t, rest = alpha[0], alpha[1:]
    total = 0
    # a set bit b >= t whose bit b - t is clear heads a removable t-hook
    hooks = w & ~(w << t) & -(1 << t)
    while hooks:
        top = hooks & -hooks
        hooks ^= top
        child = w ^ top ^ (top >> t)
        # trailing ones are zero parts; shifting them out keeps one word
        # per shape
        child >>= (child ^ (child + 1)).bit_length() - 1
        term = _mn(child, rest)
        # the hook's height is the number of betas strictly inside it
        if (w & (top - (top >> (t - 1)))).bit_count() & 1:
            total -= term
        else:
            total += term
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
    return _mn(_word(lam), tuple(sorted(alpha, reverse=True)))


class CharKernel:
    """Classes of S_n in enumerate_partitions order, their sizes, and n!.

    Rows chi^lam (lam validated by the caller) are int tuples built on first
    request, so one Kronecker query costs three rows, never the whole table.
    A weight vector that is zero on most classes (plethysm, the Saxl
    staircase) is contracted by ``contract`` on its support alone, which
    builds no row.
    """

    def __init__(self, n):
        self.classes = tuple(enumerate_partitions(n))
        self.sizes = tuple(map(class_size, self.classes))
        self.order = factorial(n)
        self.rows = {}

    def row(self, lam):
        cached = self.rows.get(lam)
        if cached is None:
            w = _word(lam)
            cached = self.rows[lam] = tuple(_mn(w, a) for a in self.classes)
        return cached

    def contract(self, lam, classes, weights):
        """Sum of weights[i] * chi^lam(classes[i]); stores no row.

        Each class is a cycle type of n with its parts in decreasing order.
        The values come from one bulk read of the MN memo; only the misses
        run the recursion, which fills them in.
        """
        w = _word(lam)
        values = list(map(_memo.get, zip(repeat(w), classes)))
        if None in values:
            for i, v in enumerate(values):
                if v is None:
                    values[i] = _mn(w, classes[i])
        return sum(map(mul, weights, values))

    def weighted(self, lam, mu):
        """The tuple |C_a| * chi^lam(a) * chi^mu(a) over the classes a."""
        return tuple(map(mul, self.sizes, map(mul, self.row(lam), self.row(mu))))


def char_kernel(n):
    """The shared CharKernel of S_n (dropped by clear_memo)."""
    return _kernels.get(n) or _kernels.setdefault(n, CharKernel(n))


class CharTable:
    """Full character table of S_n with deterministic row/column order."""

    def __init__(self, n, columns, rows):
        self.n = n
        self.columns = columns
        self.rows = rows

    def to_jsonl(self):
        """Yield one JSON line per row; values as decimal strings."""
        for lam in self.columns:
            yield json.dumps(
                {
                    "partition": [str(p) for p in lam],
                    "values": [str(self.rows[lam][a]) for a in self.columns],
                }
            )


def check_table_size(n, limit):
    """Raise ValueError unless 1 <= n <= limit (the whole-table size guard)."""
    if n < 1:
        raise ValueError("a table needs n >= 1, got %d" % n)
    if n > limit:
        raise ValueError("n=%d exceeds the table limit of %d" % (n, limit))


def character_table(n, limit=TABLE_LIMIT):
    """All chi^lam(alpha) for lam, alpha |- n, in enumerate_partitions order.

    The limit is a resource guard, not a correctness bound; raise it
    explicitly for bigger sweeps.
    """
    check_table_size(n, limit)
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
