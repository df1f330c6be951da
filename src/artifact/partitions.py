"""Integer partition arithmetic: enumeration, orders, and closed-form counts.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the partition of 0.  Everything downstream (tableaux, characters,
Kronecker and plethysm coefficients) consumes these helpers.
"""

from functools import cache
from math import factorial


class SizeMismatchError(ValueError):
    """Two partitions were expected to have equal size but do not."""


def check_partition(parts):
    """Validate a sequence as a partition and return it as a tuple."""
    p = tuple(parts)
    for i, a in enumerate(p):
        if type(a) is not int or a < 1:
            raise ValueError(f"parts must be positive integers, got {a!r}")
        if i and p[i - 1] < a:
            raise ValueError(f"parts must be weakly decreasing, got {p}")
    return p


def _require_int(key, value):
    if type(value) is not int:
        raise ValueError(f"{key} must be an int, got {value!r}")


def parse_partition(text):
    """Parse '5,4,2' or '2^3,1' into a partition tuple; '-' or '' is empty."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    parts = []
    for term in text.split(","):
        term = term.strip()
        if "^" in term:
            base, _, exp = term.partition("^")
            try:
                a, k = int(base), int(exp)
            except ValueError:
                raise ValueError(f"bad partition term {term!r}") from None
            if k < 1:
                raise ValueError(f"exponent must be >= 1 in {term!r}")
            parts.extend([a] * k)
        else:
            try:
                parts.append(int(term))
            except ValueError:
                raise ValueError(f"bad partition term {term!r}") from None
    return check_partition(parts)


def format_partition(p):
    """Inverse of parse_partition, with exponent form for repeated parts."""
    if not p:
        return "-"
    out = []
    i = 0
    while i < len(p):
        j = i
        while j < len(p) and p[j] == p[i]:
            j += 1
        out.append(f"{p[i]}^{j - i}" if j - i > 1 else str(p[i]))
        i = j
    return ",".join(out)


def enumerate_partitions(n, max_part=None, max_len=None):
    """All partitions of n (optionally bounded) in reverse lexicographic order.

    ZS1 (Zoghbi-Stojmenovic 1998), iterative: the next partition lowers the
    rightmost part that can be lowered by one and refills the cells after it
    greedily with parts of the new size.  A refill of s cells with parts
    <= r takes ceil(s / r) parts, so max_len prunes a prefix before it is
    filled instead of filtering whole partitions.
    """
    _require_int("n", n)
    for key, value in (("max_part", max_part), ("max_len", max_len)):
        if value is not None:
            _require_int(key, value)
    if n < 0:
        raise ValueError("n must be >= 0")
    if not n:
        return [()]
    a = n if max_part is None else min(max_part, n)
    b = n if max_len is None else min(max_len, n)
    if a < 1 or b < 1 or a * b < n:
        return []
    q, rem = divmod(n, a)
    x = [a] * q + [rem] * (rem > 0)
    out = [tuple(x)]
    # h indexes the last part above 1; only ones follow it
    h = len(x) - 1 if x[-1] > 1 else q - 1 if a > 1 else -1
    while h >= 0:
        if x[h] == 2 and len(x) < b:
            # the common step: a 2 becomes 1, 1
            x[h] = 1
            x.append(1)
            h -= 1
            out.append(tuple(x))
            continue
        # s cells from part i on; part i can fall to r if they fit in b - i parts
        i = h
        s = x[h] + len(x) - 1 - h
        r = x[h] - 1
        while s > r * (b - i):
            i -= 1
            if i < 0:
                return out
            s += x[i]
            r = x[i] - 1
        q, rem = divmod(s, r)
        x[i:] = [r] * q
        if rem:
            x.append(rem)
        h = len(x) - 1 if rem > 1 else i + q - 1 if r > 1 else i - 1
        out.append(tuple(x))
    return out


def conjugate(p):
    """Transpose of the Young diagram: column j is the number i of parts > j."""
    out, i = [], len(p)
    for j in range(p[0] if p else 0):
        while p[i - 1] <= j:
            i -= 1
        out.append(i)
    return tuple(out)


def durfee(p):
    """Largest i with p_i >= i (side of the Durfee square)."""
    d = 0
    for i, a in enumerate(p, start=1):
        if a >= i:
            d = i
        else:
            break
    return d


def is_self_conjugate(p):
    return tuple(p) == conjugate(p)


def principal_hooks(p):
    """Diagonal hook lengths (2p_i - (2i-1)) of a self-conjugate partition."""
    p = tuple(p)
    if not is_self_conjugate(p):
        raise ValueError(f"{p} is not self-conjugate")
    return tuple(2 * p[i] - (2 * i + 1) for i in range(durfee(p)))


def _centralizer_order(alpha):
    """z_alpha = prod i^c c!, one running product over each run of equal parts."""
    z, prev, run = 1, 0, 0
    for part in alpha:
        run = run + 1 if part == prev else 1
        prev = part
        z *= part * run
    return z


def centralizer_order(alpha):
    """z_alpha — order of the centralizer of the class of cycle type alpha."""
    return _centralizer_order(check_partition(alpha))


def hook_lengths(p):
    """Hook length of every cell, as a row-by-row list of lists."""
    conj = conjugate(p)
    return [
        [p[i] - j + conj[j] - i - 1 for j in range(p[i])] for i in range(len(p))
    ]


def dimension_hlf(p):
    """Number of standard Young tableaux of shape p (hook-length formula)."""
    p = check_partition(p)
    n = sum(p)
    prod = 1
    for row in hook_lengths(p):
        for h in row:
            prod *= h
    return factorial(n) // prod


@cache
def count_bounded(r, a, b):
    """Partitions of r with largest part <= a and at most b parts (p_r(a,b)).

    The library's general partition counter: p(m) is count_bounded(m, m, m),
    and the partitions of m with parts <= q number count_bounded(m, q, m).
    The dense rows read those of one size from characters._layout instead,
    which also counts the classes by first part; a test holds the two equal.
    A bound past r cannot bind, so the recursion clamps both bounds to r:
    below the top call, counts that differ only there share one memo entry.
    """
    if r < 0:
        return 0
    if r == 0:
        return 1
    if a <= 0 or b <= 0:
        return 0
    a, b = min(a, r), min(b, r)
    rest = r - a
    return count_bounded(r, a - 1, b) + count_bounded(
        rest, min(a, rest), min(b - 1, rest)
    )


def contains(inner, outer):
    """True iff the diagram of inner fits inside outer cellwise."""
    return all(
        (inner[i] if i < len(inner) else 0) <= (outer[i] if i < len(outer) else 0)
        for i in range(len(inner))
    )


def pad(p, n):
    """p[n] = (n - |p|, p_1, p_2, ...); requires n - |p| >= p_1."""
    p = tuple(p)
    head = n - sum(p)
    if head < (p[0] if p else 0):
        raise ValueError(f"cannot pad {p} to size {n}: first row too short")
    return (head, *p) if head > 0 else p


def add(p, q):
    """Componentwise sum of two partitions."""
    return tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(max(len(p), len(q)))
    )


def stretch(p, n):
    """Multiply every part by n."""
    if n == 0:
        return ()
    return tuple(a * n for a in p)


def remove_horizontal_strips(p, size):
    """Sub-partitions T of p with p/T a horizontal strip of the given size.

    The rows interlace, p_{i+1} <= T_i <= p_i, so p - T is a composition of
    size bounded by the positive gaps p_i - p_{i+1}: one walk of
    _bounded_compositions, which also builds contingency tables.
    """
    p = tuple(p)
    low = (*p[1:], 0)
    ends = [i for i in range(len(p)) if p[i] > low[i]]
    out = []
    for c in _bounded_compositions(size, tuple(p[i] - low[i] for i in ends)):
        t = list(p)
        for i, v in zip(ends, c):
            t[i] -= v
        out.append(tuple(t[:-1] if t and not t[-1] else t))
    return out


def subdiagrams(p, least=0):
    """All partitions of at least `least` cells whose diagram fits inside p,
    in increasing size order.

    A prefix ending in v is dropped, with every smaller v, once even the
    rows below it cannot bring it up to least: they hold at most the
    smaller of p's cells below and v per row left.
    """
    p = tuple(p)
    below = [sum(p[i + 1:]) for i in range(len(p))]
    out = [()] if least <= 0 else []

    def build(i, prefix, size):
        if i == len(p):
            return
        top = min(p[i], prefix[-1]) if prefix else p[i]
        rows = len(p) - i - 1
        for v in range(top, 0, -1):
            if size + v + min(below[i], v * rows) < least:
                break
            cand = (*prefix, v)
            if size + v >= least:
                out.append(cand)
            build(i + 1, cand, size + v)

    build(0, (), 0)
    out.sort(key=lambda q: (sum(q), q))
    return out


def contingency_tables(rows, cols):
    """Yield every nonnegative integer matrix with the given row and column sums.

    Each matrix is a tuple of row tuples.  The first row runs over the
    compositions of rows[0] bounded by cols, and the rest is a table for the
    column sums left over; the last row is forced.
    """
    if sum(rows) != sum(cols):
        return
    if len(rows) < 2:
        yield (tuple(cols),) if rows else ()
        return
    for first in _bounded_compositions(rows[0], tuple(cols)):
        rest = tuple(c - f for c, f in zip(cols, first))
        for tail in contingency_tables(rows[1:], rest):
            yield (first, *tail)


def _bounded_compositions(total, bounds):
    """Compositions of total with len(bounds) parts, part i at most bounds[i].

    The one composition walk, for horizontal strips and contingency tables.
    Every prefix completes: each part is at least what the later parts
    cannot absorb.  A total below 0 or above sum(bounds) yields nothing.
    """
    if len(bounds) < 2:
        if 0 <= total <= sum(bounds):
            yield (total,)[: len(bounds)]
        return
    room = sum(bounds[1:])
    for v in range(max(0, total - room), min(total, bounds[0]) + 1):
        if len(bounds) == 2:
            yield (v, total - v)
        else:
            for tail in _bounded_compositions(total - v, bounds[1:]):
                yield (v, *tail)
