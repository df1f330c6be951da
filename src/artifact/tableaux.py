"""Tableau counts: Kostka numbers and Littlewood-Richardson coefficients.

Kostka numbers follow the branching rule: an SSYT is a chain of horizontal
strips, one per letter, so K(lam, alpha) sums K(nu, alpha without its last
part) over the nu with lam/nu a horizontal strip of that size, memoized per
(nu, weight prefix).  LR coefficients and skew Schur expansions share one
count of LR tableaux by content, with a per-letter budget: the weight nu
for c^lam_{mu,nu}, a budget that never binds for the full expansion.  On
the shape reduced to the rows and columns that hold a cell, a straight
shape or one turned by 180 degrees inside a rectangle has one LR tableau,
read off without a search; any other goes to a depth-first generation of
skew semistandard tableaux — rows weakly increase, columns strictly
increase — with the ballot condition enforced incrementally.  The reading
word of a skew tableau scans rows right-to-left, top-to-bottom.
"""

from functools import cache
from operator import le

from .partitions import SizeMismatchError, check_partition, remove_horizontal_strips

Partition = tuple[int, ...]


def kostka(lam: Partition, alpha: tuple[int, ...]) -> int:
    """Number of SSYT of shape ``lam`` and weight ``alpha``.

    ``alpha`` may be any composition of |lam|, zero parts included; it is
    never sorted (Kostka numbers are invariant under permuting the weight,
    which the tests exercise rather than assume).  The arguments are
    validated on every call; the memo lives on the strip chains below.

    Raises:
        ValueError: if ``lam`` is not a partition or a part of ``alpha`` is
            not a nonnegative int.
        SizeMismatchError: if |alpha| != |lam|.
    """
    lam = check_partition(lam)
    alpha = tuple(alpha)
    for a in alpha:
        if type(a) is not int or a < 0:
            raise ValueError(f"weight parts must be nonnegative integers, got {a!r}")
    if sum(lam) != sum(alpha):
        raise SizeMismatchError(f"|{alpha}| != |{lam}|")
    return _strip_chains(lam, alpha)


@cache
def _strip_chains(nu: Partition, alpha: tuple[int, ...]) -> int:
    """K(nu, alpha) for validated arguments of equal size.

    Branching rule (Macdonald I.(5.11)): the cells holding the largest
    letter form a horizontal strip of size alpha[-1], and what is left is
    an SSYT of weight alpha[:-1].  A column-strict filling with len(alpha)
    letters has at most len(alpha) rows.
    """
    if len(nu) > len(alpha):
        return 0
    if not alpha:
        return 1
    head = alpha[:-1]
    return sum(
        _strip_chains(rho, head) for rho in remove_horizontal_strips(nu, alpha[-1])
    )


def _skew_cells(outer: Partition, inner: Partition) -> list[tuple[int, int]]:
    """Cells of outer/inner in reading order (rows top-down, right-to-left)."""
    cells = []
    for i, length in enumerate(outer):
        start = inner[i] if i < len(inner) else 0
        for j in range(length - 1, start - 1, -1):
            cells.append((i, j))
    return cells


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu,nu}.

    Counts skew SSYT of shape lam/mu and weight nu whose reading word is a
    ballot sequence.  Returns 0 when mu is not contained in lam.  The
    arguments are validated on every call; the memo lives on the core below.

    Raises:
        ValueError: if lam, mu or nu is not a partition.
        SizeMismatchError: if |lam| != |mu| + |nu|.
    """
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(lam) != sum(mu) + sum(nu):
        raise SizeMismatchError(f"|{lam}| != |{mu}| + |{nu}|")
    return _lr_core(lam, mu, nu)


@cache
def _lr_core(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^lam_{mu,nu} for validated arguments of matching size."""
    return _lr_tableaux(lam, mu, nu).get(nu, 0)


@cache
def skew_schur_expansion(outer: Partition, inner: Partition) -> dict:
    """Expansion of the skew Schur function s_{outer/inner} in Schur terms.

    Returns:
        dict mapping content partition nu to c^outer_{inner,nu}, over all nu.
        Empty dict when inner is not contained in outer.
    """
    outer, inner = tuple(outer), tuple(inner)
    n = sum(outer) - sum(inner)
    return _lr_tableaux(outer, inner, (n,) * n)


def _lr_tableaux(outer: Partition, inner: Partition, weight: tuple[int, ...]) -> dict:
    """Count the LR tableaux of outer/inner by content, at most weight[v-1]
    copies of the letter v; empty dict when inner is not contained in outer.

    One walk up the rows checks containment and reduces the shape: it drops
    the empty rows and shifts each block of rows left over the empty
    columns below it.  That only translates the connected components, so
    s_{outer/inner} does not change.  A straight reduced shape has one LR
    tableau, of content the shape; so has one whose outer is a rectangle,
    the 180-degree turn of a straight shape, of content that shape turned
    back.  The content is kept if it fits the budget; other shapes are
    searched.
    """
    if any(inner[len(outer) :]):
        return {}
    outs, ins, shift, below = [], [], 0, 0  # the reduced rows, bottom-up
    for i in range(len(outer) - 1, -1, -1):
        o, m = outer[i], inner[i] if i < len(inner) else 0
        if m > o:
            return {}
        if m < o:
            shift += max(m - below, 0)  # no cell from the row below's end to m
            outs.append(o - shift)
            ins.append(m - shift)
            below = o
    if not ins or not ins[-1]:  # the top row's inner is the largest
        content = tuple(reversed(outs))
    elif outs[-1] == outs[0]:
        content = tuple(outs[0] - m for m in ins)
    else:
        inner = tuple(reversed(ins[ins.count(0) :]))
        return _lr_search(tuple(reversed(outs)), inner, weight)
    fits = len(content) <= len(weight) and all(map(le, content, weight))
    return {content: 1} if fits else {}


def _lr_search(outer: Partition, inner: Partition, weight: tuple[int, ...]) -> dict:
    """Count the LR tableaux of outer/inner by content, at most weight[v-1]
    copies of the letter v, by depth-first search; inner must fit in outer.
    """
    cells = _skew_cells(outer, inner)
    n = len(cells)
    budget = list(weight)
    letters = len(budget)
    entry: dict[tuple[int, int], int] = {}
    ballot = [0] * (letters + 1)
    ballot[0] = n + 1  # sentinel so letter 1 is always placeable
    out: dict[Partition, int] = {}

    def place(k: int, maxletter: int) -> None:
        if k == n:
            content = tuple(ballot[1 : maxletter + 1])
            out[content] = out.get(content, 0) + 1
            return
        i, j = cells[k]
        hi = entry.get((i, j + 1), min(maxletter + 1, letters))  # row weakly increases
        lo = entry.get((i - 1, j), 0) + 1  # column strictly increases down
        for v in range(lo, hi + 1):
            if budget[v - 1] == 0 or ballot[v] + 1 > ballot[v - 1]:
                continue
            budget[v - 1] -= 1
            ballot[v] += 1
            entry[(i, j)] = v
            place(k + 1, max(maxletter, v))
            del entry[(i, j)]
            ballot[v] -= 1
            budget[v - 1] += 1

    place(0, 0)
    return out
