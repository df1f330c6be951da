"""Exact symmetric-group characters via the Murnaghan-Nakayama recursion.

The recursion runs on the beta-set of a shape (its first-column hook
lengths, the abacus of James-Kerber 2.7) held as one int word: bit
lam_i + len(lam) - 1 - i is set for each part.  A rim hook of length t is
a set bit b >= t whose bit b - t is clear; removing it moves that bit down
by t, and its height is the number of set bits strictly between.  Zero
parts are trailing one bits, which are shifted out, so every shape has one
word.  Cycle-type parts are consumed largest-first, so the remaining type
is always a suffix of the sorted input and memo entries, keyed (word,
suffix), are shared across every query made in a process.  That point route
serves single values (character) and the tails of a ClassSum, a sparse
weighted sum over classes that runs the same recursion over a prefix trie of
its cycle types, so a rim hook shared by many classes comes off once.

Dense rows (strip_row) come a block at a time instead, over the classes of
conjugacy_classes(n).  A row is the character of s_lam * h_r: chi^lam when
r = 0, and by Pieri's rule the sum of chi^eps over the eps with eps/lam a
horizontal strip of r cells.  In enumerate_partitions order the classes of
S_m with first part t are one block, and their rests are the classes of
S_{m-t} with parts <= t, a suffix of that size's class list.  The adjoint
p_t^perp is a derivation with p_t^perp h_r = h_{r-t}, so the block is the
signed sum, over the t-hooks of lam, of the child's row bounded by t, plus
the row of s_lam * h_{r-t} when t <= r: one tuple map per term, and zeros
where there is none.  The block sizes of S_m, by first part and by largest
part, are counted once per size (_layout).  A bounded row is the tail of
the row of any larger bound, so _rows keeps one row per (word, size), over
the largest bound built so far, and builds only the blocks a larger bound
adds: the one store of dense rows, read by every dense contraction.  It is
read in one more way: chi^lam' = sgn * chi^lam, so when strip_row finds a
conjugate's full row stored it reads an irreducible row from it, times
the sign row chi^(1^t), which the recursion itself builds.  character_table(n)
is those rows of S_n as a plain dict of dicts.
"""

import sys
from functools import cache
from itertools import accumulate
from math import factorial
from operator import add, mul, neg, sub

from .partitions import (
    SizeMismatchError,
    _centralizer_order,
    _require_int,
    check_partition,
    conjugate,
    enumerate_partitions,
)

_memo = {}
_rows = {}

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
    """Empty every store: the MN memo, the dense rows and each @cache table.

    The tables are found on the loaded artifact modules, not in a list, so
    a new @cache is emptied too; a ClassSum cached in one goes with its
    node values.
    """
    _memo.clear()
    _rows.clear()
    for name, module in list(sys.modules.items()):
        if name.startswith(__package__ + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@cache
def _layout(m):
    """The class blocks of S_m: counts by first part t, and by parts <= q.

    firsts[t] classes have first part t (firsts[0] = 0) and bounded[q]
    have every part <= q, for t, q in 0..m; _row reads its block sizes here.
    The rests of the block of first part t are the classes of S_{m-t} with
    parts <= t, so firsts comes from the layouts of the smaller sizes.
    """
    if not m:
        return (0,), (1,)
    firsts = (0, *(_layout(m - t)[1][min(t, m - t)] for t in range(1, m + 1)))
    return firsts, tuple(accumulate(firsts))


@cache
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
        term = _memo.get((child, rest)) if rest else 1
        if term is None:
            term = _mn(child, rest)
        # the hook's height is the number of betas strictly inside it
        if (w & (top - (top >> (t - 1)))).bit_count() & 1:
            total -= term
        else:
            total += term
    _memo[key] = total
    return total


def _row(w, r, m, q):
    """The character of s_w * h_r, of size m, on the classes of S_m with parts <= q.

    The classes run in enumerate_partitions order (q <= m), so the row is
    the tail of the row of any larger bound.  _rows keeps one row per
    (w, m), over the largest bound built so far: a smaller bound reads its
    tail, and a larger one builds only the blocks of first part above the
    stored bound and puts them in front.  With r = 0 it is chi^w.
    """
    if not m:
        return (1,)
    firsts, bounded = _layout(m)
    size = bounded[q]
    stored = _rows.get((w, m), ())
    have = len(stored)
    if have >= size:
        return stored if have == size else stored[-size:]
    row = []
    t = q
    while len(row) + have < size:
        left = m - t
        bound = t if t < left else left
        need = firsts[t]
        # p_t^perp h_r = h_{r-t}, the term of the derivation that keeps w
        block = _row(w, r - t, left, bound) if t <= r else None
        # the rim-hook walk of _mn, once for the whole block of first part t
        hooks = w & ~(w << t) & -(1 << t)
        while hooks:
            top = hooks & -hooks
            hooks ^= top
            child = w ^ top ^ (top >> t)
            child >>= (child ^ (child + 1)).bit_length() - 1
            rest = _rows.get((child, left), ())
            if len(rest) != need:
                rest = rest[-need:] if len(rest) > need else _row(child, r, left, bound)
            odd = (w & (top - (top >> (t - 1)))).bit_count() & 1
            if block is None:
                block = tuple(map(neg, rest)) if odd else rest
            else:
                block = tuple(map(sub if odd else add, block, rest))
        row.extend(block or (0,) * need)
        t -= 1
    row.extend(stored)
    row = _rows[w, m] = tuple(row)
    return row


def strip_row(rho, t):
    """The sum of chi^eps over the eps |- t with eps/rho a horizontal strip.

    By Pieri's rule that is the character of s_rho * h_r, r = t - |rho|, as a
    tuple over the classes of S_t in enumerate_partitions order; rho = eps
    gives the row chi^eps itself, and a full stored row is returned as is.
    An irreducible row (|rho| = t > 1) that is not stored in full, while
    the full row of rho' is, is read as sgn * chi^rho' and stored.  The sign
    row chi^(1^t) comes from _row itself, so asking for (1^t) never loops.
    """
    w = _word(rho)
    row = _rows.get((w, t), ())
    size = _layout(t)[1][t]
    if len(row) == size:
        return row
    r = t - sum(rho)
    sign = (2 << t) - 2  # the word of (1^t): bits 1..t
    if not r and w != sign:
        twin = _rows.get((_word(conjugate(rho)), t), ())
        if len(twin) == size:
            row = _rows[w, t] = tuple(map(mul, _row(sign, 0, t, t), twin))
            return row
    return _row(w, r, t, t)


def character(lam, alpha):
    """Character value chi^lam(alpha), exact.

    Both arguments are partitions of the same integer; alpha is the cycle
    type.  Raises SizeMismatchError when the sizes differ.
    """
    lam = check_partition(lam)
    alpha = check_partition(alpha)
    if sum(lam) != sum(alpha):
        raise SizeMismatchError(
            "cycle type %r does not match |shape| = %d" % (alpha, sum(lam))
        )
    return _mn(_word(lam), alpha)


@cache
def conjugacy_classes(n):
    """The cycle types of S_n in enumerate_partitions order, and their class sizes.

    A size is n!/z_alpha (partitions._centralizer_order).
    """
    classes = tuple(enumerate_partitions(n))
    order = factorial(n)
    return classes, tuple(order // _centralizer_order(alpha) for alpha in classes)


class ClassSum:
    """The class function sum_i weights[i] * chi(classes[i]) on S_n.

    It is built from one {cycle type: weight} mapping over cycle types of
    one n, parts decreasing; classes and weights keep its nonzero weights,
    in its order.
    ``contract(lam)`` evaluates it at chi^lam by the MN recursion run over a
    prefix trie of the classes: the value at (shape word w, node) is the
    weighted sum of chi^w(the parts left) over the classes below the node,
    so a t-hook comes off a shape once for all the classes that go on with
    part t below a node, not once per class.  Below the root, a node exists
    only where two or more classes share a prefix; a class that shares its
    next part with no other one is a tail of its node, (the rest of the
    class, its weight), read from the shared MN memo through _mn.  Node
    values are memoized here, keyed (word, node index), and live as long as
    this object.
    """

    def __init__(self, weights):
        items = [(alpha, weight) for alpha, weight in weights.items() if weight]
        self.classes = tuple(alpha for alpha, _ in items)
        self.weights = tuple(weight for _, weight in items)
        self._nodes = []
        self._values = {}
        self._node(items, 0)

    def _node(self, group, depth):
        """Add the node of the classes sharing their first depth parts.

        A node is (subs, tails): (t, child node) for each next part t that
        two or more of the classes share, and the tails of the others.
        """
        below = {}
        for item in group:
            # a slice, so that the empty class of S_0 is a tail of the root
            below.setdefault(item[0][depth : depth + 1], []).append(item)
        index = len(self._nodes)
        self._nodes.append(None)
        subs, tails = [], []
        for head, items in below.items():
            if len(items) == 1:
                [(alpha, weight)] = items
                tails.append((alpha[depth:], weight))
            else:
                subs.append((head[0], self._node(items, depth + 1)))
        self._nodes[index] = subs, tails
        return index

    def contract(self, lam):
        """sum_i weights[i] * chi^lam(classes[i]); lam is a partition of n."""
        w = _word(lam)
        value = self._values.get((w, 0))
        return self._value(w, 0) if value is None else value

    def _value(self, w, node):
        values = self._values
        subs, tails = self._nodes[node]
        total = 0
        for rest, weight in tails:
            term = _memo.get((w, rest))
            if term is None:
                term = _mn(w, rest)
            total += weight * term
        for t, sub in subs:
            # the rim-hook walk of _mn, once for every class below sub
            hooks = w & ~(w << t) & -(1 << t)
            while hooks:
                top = hooks & -hooks
                hooks ^= top
                child = w ^ top ^ (top >> t)
                child >>= (child ^ (child + 1)).bit_length() - 1
                term = values.get((child, sub))
                if term is None:
                    term = self._value(child, sub)
                if (w & (top - (top >> (t - 1)))).bit_count() & 1:
                    total -= term
                else:
                    total += term
        values[w, node] = total
        return total


def check_table_size(n, limit):
    """The table guard: ValueError unless n and limit are ints, 1 <= n <= limit."""
    _require_int("n", n)
    _require_int("limit", limit)
    if n < 1:
        raise ValueError("a table needs n >= 1, got %d" % n)
    if n > limit:
        raise ValueError("n=%d exceeds the table limit of %d" % (n, limit))


def character_table(n):
    """Every chi^lam(alpha) of S_n as a dict {lam: {alpha: value}}.

    Rows and columns run in enumerate_partitions order.  n above
    TABLE_LIMIT is refused: a resource guard, not a correctness bound.
    """
    check_table_size(n, TABLE_LIMIT)
    classes, _ = conjugacy_classes(n)
    return {lam: dict(zip(classes, strip_row(lam, n))) for lam in classes}

