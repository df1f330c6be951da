import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.characters import character_table, clear_memo
from artifact.kronecker import kron_char, kron_table, padding_threshold, reduced_kron
from artifact.partitions import (
    SizeMismatchError,
    add,
    centralizer_order,
    conjugate,
    contingency_tables,
    count_bounded,
    dimension_hlf,
    durfee,
    enumerate_partitions,
    format_partition,
    hook_lengths,
    pad,
    parse_partition,
    principal_hooks,
    remove_horizontal_strips,
    stretch,
    subdiagrams,
)
from artifact.plethysm import foulkes_violations, pleth_coefficient, pleth_hn_expansion
from artifact.tableaux import kostka


def contains(inner, outer):
    """True iff the diagram of inner fits inside outer cellwise."""
    return all(
        (inner[i] if i < len(inner) else 0) <= (outer[i] if i < len(outer) else 0)
        for i in range(len(inner))
    )


def dominance_leq(p, q):
    """True iff p is dominated by q (every prefix sum of p <= that of q)."""
    if sum(p) != sum(q):
        raise SizeMismatchError(f"|{p}| != |{q}|")
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp > sq:
            return False
    return True


def class_size(alpha):
    """Number of permutations of cycle type alpha: n!/z_alpha."""
    return math.factorial(sum(alpha)) // centralizer_order(alpha)


@st.composite
def partition_strategy(draw, max_size=30):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=remaining))
        parts.append(part)
        remaining -= part
    return tuple(sorted(parts, reverse=True))


# -- parsing ---------------------------------------------------------------


def test_parse_basic():
    assert parse_partition("5,4,2") == (5, 4, 2)
    assert parse_partition("2^3,1") == (2, 2, 2, 1)
    assert parse_partition("") == ()
    assert parse_partition("-") == ()
    assert parse_partition("7") == (7,)


@pytest.mark.parametrize("bad", ["1,2", "0", "2^0", "a", "3,,1", "1^-2", "-1"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


@given(partition_strategy())
def test_format_roundtrip(p):
    assert parse_partition(format_partition(p)) == p


# -- enumeration -----------------------------------------------------------


def test_enumerate_order_n5():
    assert enumerate_partitions(5) == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_enumerate_edge_cases():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4, max_part=2, max_len=2) == [(2, 2)]
    assert enumerate_partitions(3, max_part=1) == [(1, 1, 1)]


def reference_partitions(n, max_part=None, max_len=None):
    """The recursive generator: each part in turn, largest first."""
    a = n if max_part is None else min(max_part, n)
    b = n if max_len is None else max_len
    out = []

    def rec(rem, biggest, room, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        if room == 0:
            return
        for part in range(min(rem, biggest), 0, -1):
            prefix.append(part)
            rec(rem - part, part, room - 1, prefix)
            prefix.pop()

    rec(n, a, b, [])
    return out


def test_enumerate_matches_the_recursive_reference():
    # the iterative generator prunes on max_len; same lists, same order
    for n in range(21):
        bounds = [None, *range(n + 2)]
        for max_part in bounds:
            for max_len in bounds:
                assert enumerate_partitions(n, max_part, max_len) == (
                    reference_partitions(n, max_part, max_len)
                )


def test_enumerate_matches_count_bounded():
    # p(n) is the unbounded case of the bounded count
    for n in [*range(20), 40]:
        assert len(enumerate_partitions(n)) == count_bounded(n, n, n)
    assert count_bounded(40, 40, 40) == 37338


@given(partition_strategy())
def test_enumerated_partitions_are_weakly_decreasing(p):
    for q in enumerate_partitions(sum(p), max_part=max(p, default=0) or None):
        assert all(q[i] >= q[i + 1] for i in range(len(q) - 1))
        assert sum(q) == sum(p)


# -- conjugation and dominance ----------------------------------------------


def test_conjugate_known():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((6,)) == (1, 1, 1, 1, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_counts_the_parts_above_each_column():
    # column j of p is as long as the number of parts of p greater than j
    for n in range(16):
        for p in enumerate_partitions(n):
            want = tuple(sum(1 for a in p if a > j) for j in range(p[0] if p else 0))
            assert conjugate(p) == want


@given(partition_strategy())
def test_conjugate_is_involution(p):
    assert conjugate(conjugate(p)) == p


def test_dominance_known():
    assert dominance_leq((3, 3), (4, 2))
    assert not dominance_leq((4, 2), (3, 3))
    # incomparable pair
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))


@given(partition_strategy())
def test_dominance_reflexive(p):
    assert dominance_leq(p, p)


def test_dominance_size_mismatch():
    with pytest.raises(SizeMismatchError):
        dominance_leq((2,), (1, 1, 1))


def test_dominance_conjugate_antitone():
    for p in enumerate_partitions(6):
        for q in enumerate_partitions(6):
            assert dominance_leq(p, q) == dominance_leq(conjugate(q), conjugate(p))


# -- durfee and principal hooks ---------------------------------------------


def test_durfee_known():
    assert durfee((5, 4, 2)) == 2
    assert durfee((3, 2, 1)) == 2
    assert durfee(()) == 0
    for n in range(1, 6):
        assert durfee((1,) * n) == 1


def test_principal_hooks_known():
    assert principal_hooks((2, 1)) == (3,)
    assert principal_hooks((3, 2, 1)) == (5, 1)
    assert principal_hooks((1,)) == (1,)
    with pytest.raises(ValueError):
        principal_hooks((3, 1))


def test_principal_hooks_distinct_odd_parts():
    # diagonal hooks of a self-conjugate shape: distinct odd parts summing to n
    for n in range(1, 15):
        for p in enumerate_partitions(n):
            if conjugate(p) != p:
                continue
            hooks = principal_hooks(p)
            assert sum(hooks) == n
            assert all(h % 2 == 1 for h in hooks)
            assert len(set(hooks)) == len(hooks)
            assert all(hooks[i] > hooks[i + 1] for i in range(len(hooks) - 1))
            # they really are the diagonal hook lengths
            table = hook_lengths(p)
            assert hooks == tuple(table[i][i] for i in range(durfee(p)))


# -- centralizers and dimensions ---------------------------------------------


@pytest.mark.parametrize(
    "call, args",
    [
        (dimension_hlf, [(1, 2)]),
        (dimension_hlf, [(1, 0, 1)]),
        (centralizer_order, [(0,)]),
        (centralizer_order, [(2.5,)]),
        (padding_threshold, [(1, 2), (), ()]),
        (padding_threshold, [(), (), (2, 0)]),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_public_counts_reject_non_partitions(call, args):
    with pytest.raises(ValueError, match="^parts must be "):
        call(*args)


@pytest.mark.parametrize(
    "call, args",
    [
        (kron_char, [(True,), (1,), (1,)]),
        (dimension_hlf, [(2, True)]),
        (reduced_kron, [(True,), (1,), (1,)]),
        (kostka, [(2,), (True, True)]),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_bool_parts_are_rejected(call, args):
    # bool is a subclass of int, but True is not a part
    with pytest.raises(ValueError, match="parts must be .* integers, got True$"):
        call(*args)


@pytest.mark.parametrize(
    "call, args, key",
    [
        (enumerate_partitions, [2.5], "n"),
        (enumerate_partitions, [True], "n"),
        (enumerate_partitions, [4, 2.0], "max_part"),
        (enumerate_partitions, [4, None, True], "max_len"),
        (character_table, [2.5], "n"),
        (kron_table, [True], "n"),
        (pleth_hn_expansion, [2.5, 2], "d"),
        (pleth_hn_expansion, [2, True], "n"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_size_arguments_must_be_ints(call, args, key):
    with pytest.raises(ValueError, match=f"^{key} must be an int, got "):
        call(*args)


@pytest.mark.parametrize(
    "call, args, kwargs, message",
    [
        (kron_table, [3], {"limit": "x"}, "limit must be an int, got 'x'"),
        (kron_table, [3], {"limit": True}, "limit must be an int, got True"),
        (pleth_coefficient, [(2, 2), (2,), (2,)], {"cap": 4.0},
         "cap must be an int, got 4.0"),
        (pleth_hn_expansion, [2, 2], {"cap": None}, "cap must be an int, got None"),
        (foulkes_violations, [3, 2], {"cap": 6.5}, "cap must be an int, got 6.5"),
        (foulkes_violations, ["3", 2], {}, "d must be an int, got '3'"),
        (foulkes_violations, [3, 2.0], {}, "n must be an int, got 2.0"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_caps_and_limits_must_be_ints(call, args, kwargs, message):
    # checked before any comparison, so neither a TypeError nor a float
    # cap that lets every degree through
    with pytest.raises(ValueError) as err:
        call(*args, **kwargs)
    assert str(err.value) == message


def test_centralizer_known():
    assert centralizer_order((1, 1, 1, 1)) == math.factorial(4)
    assert centralizer_order((5,)) == 5
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order(()) == 1


def test_class_sizes_partition_the_group():
    for n in range(13):
        assert sum(class_size(a) for a in enumerate_partitions(n)) == math.factorial(n)


def count_syt_bruteforce(shape):
    """Independent oracle: count standard fillings by placing 1..n greedily."""
    n = sum(shape)
    if n == 0:
        return 1
    total = 0

    def rec(rows, k):
        nonlocal total
        if k > n:
            total += 1
            return
        for i in range(len(shape)):
            # next free cell in row i is at column rows[i]
            if rows[i] < shape[i] and (i == 0 or rows[i] < rows[i - 1]):
                rows[i] += 1
                rec(rows, k + 1)
                rows[i] -= 1

    rec([0] * len(shape), 1)
    return total


def test_dimension_hlf_against_syt_enumeration():
    for n in range(7):
        for p in enumerate_partitions(n):
            assert dimension_hlf(p) == count_syt_bruteforce(p)


def test_dimension_hlf_known():
    assert dimension_hlf((4,)) == 1
    assert dimension_hlf((2, 2)) == 2
    assert dimension_hlf((2, 1)) == 2


def test_plancherel_identity():
    for n in range(13):
        assert sum(dimension_hlf(p) ** 2 for p in enumerate_partitions(n)) == math.factorial(n)


# -- bounded counts ----------------------------------------------------------


def test_count_bounded_known():
    assert count_bounded(2, 2, 2) == 2
    assert count_bounded(0, 5, 5) == 1
    assert count_bounded(-1, 3, 3) == 0
    assert count_bounded(7, 2, 3) == 0  # r > ab


def test_count_bounded_matches_enumeration():
    for a in range(5):
        for b in range(5):
            for r in range(a * b + 2):
                assert count_bounded(r, a, b) == len(
                    enumerate_partitions(r, max_part=a, max_len=b)
                )


def test_count_bounded_counts_parts_at_most_q():
    # characters._row pads each zero block with this many classes
    for m in range(15):
        for q in range(m + 1):
            assert count_bounded(m, q, m) == len(enumerate_partitions(m, max_part=q))


def test_count_bounded_with_bounds_past_r():
    for r in range(13):
        for a in range(15):
            for b in range(15):
                assert count_bounded(r, a, b) == len(
                    enumerate_partitions(r, max_part=a, max_len=b)
                )


def test_count_bounded_memo_clamps_bounds_to_r():
    # the (m, q, m) calls of characters._row: one entry per clamped (r, a, b);
    # keyed on the unclamped bounds these calls leave 593 entries
    clear_memo()
    for m in range(13):
        for q in range(m + 1):
            count_bounded(m, q, m)
    assert count_bounded.cache_info().currsize == 91


def test_count_bounded_box_complementation():
    for a in range(6):
        for b in range(6):
            for r in range(a * b + 1):
                assert count_bounded(r, a, b) == count_bounded(a * b - r, a, b)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _poly_divexact(f, g):
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = f[i + len(g) - 1] // g[-1]
        q[i] = c
        for j, y in enumerate(g):
            f[i + j] -= c * y
    assert all(x == 0 for x in f)
    return q


def test_count_bounded_gaussian_binomial():
    # sum_r p_r(a,b) q^r equals the Gaussian binomial [a+b choose a]_q
    for a in range(1, 7):
        for b in range(1, 7):
            num = [1]
            den = [1]
            for i in range(1, a + 1):
                num = _poly_mul(num, [1] + [0] * (i + b - 1) + [-1])
                den = _poly_mul(den, [1] + [0] * (i - 1) + [-1])
            gauss = _poly_divexact(num, den)
            for r in range(a * b + 1):
                assert gauss[r] == count_bounded(r, a, b)


# -- diagram surgery ----------------------------------------------------------


def test_contains_and_pad():
    assert contains((2, 1), (3, 2, 1))
    assert not contains((2, 2), (3, 1))
    assert pad((2, 1), 7) == (4, 2, 1)
    assert pad((), 3) == (3,)
    with pytest.raises(ValueError):
        pad((3,), 4)


def test_add_and_stretch():
    assert add((2, 1), (1, 1, 1)) == (3, 2, 1)
    assert stretch((3, 1), 2) == (6, 2)
    assert stretch((2, 2), 0) == ()


def test_remove_horizontal_strips_matches_interlacing_filter():
    # q is p minus a horizontal strip of s cells exactly when the rows
    # interlace: p_{i+1} <= q_i <= p_i; a size outside 0..p_1 has none
    for n in range(12):
        for p in enumerate_partitions(n):
            top = p[0] if p else 0
            for s in range(-1, top + 2):
                downs = remove_horizontal_strips(p, s)
                assert len(set(downs)) == len(downs)
                if not 0 <= s <= top:
                    assert downs == []
                want = {
                    q
                    for q in (enumerate_partitions(n - s) if s <= n else [])
                    if len(q) <= len(p)
                    and all(
                        (p[i + 1] if i + 1 < len(p) else 0) <= qi <= p[i]
                        for i, qi in enumerate(q + (0,) * (len(p) - len(q)))
                    )
                }
                assert set(downs) == want


def test_remove_horizontal_strips_known():
    every = {q for s in range(3) for q in remove_horizontal_strips((2, 1), s)}
    assert every == {(2, 1), (2,), (1, 1), (1,)}
    assert remove_horizontal_strips((2, 2), 1) == [(2, 1)]
    assert remove_horizontal_strips((), 0) == [()]
    assert remove_horizontal_strips((3,), 3) == [()]


def test_contingency_tables_match_product_filter():
    # every pair of margins with total <= 5 and at most 3 parts, zeros
    # allowed; cell (i, j) is at most min(rows[i], cols[j]), and margins of
    # unequal totals have no table
    margins = [m for k in range(4) for m in product(range(6), repeat=k) if sum(m) <= 5]
    for rows in margins:
        for cols in margins:
            cells = [range(min(r, c) + 1) for r in rows for c in cols]
            want = []
            for flat in product(*cells) if sum(rows) == sum(cols) else ():
                table = tuple(
                    flat[i * len(cols) : (i + 1) * len(cols)] for i in range(len(rows))
                )
                col_sums = tuple(sum(row[j] for row in table) for j in range(len(cols)))
                if tuple(map(sum, table)) == rows and col_sums == cols:
                    want.append(table)
            assert list(contingency_tables(rows, cols)) == want


def test_subdiagrams():
    subs = subdiagrams((2, 1))
    assert subs == [(), (1,), (1, 1), (2,), (2, 1)]
    assert len(subdiagrams((3, 3))) == 10


def test_subdiagrams_above_a_size_are_the_filtered_list():
    for n in range(11):
        for p in enumerate_partitions(n):
            every = subdiagrams(p)
            for least in range(-1, n + 2):
                want = [q for q in every if sum(q) >= least]
                assert subdiagrams(p, least) == want


@given(partition_strategy(max_size=12))
@settings(max_examples=40)
def test_subdiagram_membership(p):
    subs = subdiagrams(p)
    assert all(contains(q, p) for q in subs)
    assert () in subs and (tuple(p) in subs)
