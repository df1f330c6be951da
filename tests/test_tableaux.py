from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.partitions import (
    SizeMismatchError,
    conjugate,
    dimension_hlf,
    enumerate_partitions,
)
from artifact import kronecker, tableaux
from artifact.characters import clear_memo
from artifact.tableaux import (
    _lr_search,
    _lr_tableaux,
    kostka,
    lr_coefficient,
    skew_schur_expansion,
)
from artifact.verify import run_property, search_saturation_counterexample
from test_partitions import contains, dominance_leq


def is_ballot(word) -> bool:
    """Check the lattice/ballot condition.

    Args:
        word: iterable of positive integers.

    Returns:
        True iff in every prefix the number of i's is at least the number
        of (i+1)'s, for all i.
    """
    counts: dict[int, int] = {}
    for letter in word:
        counts[letter] = counts.get(letter, 0) + 1
        if letter > 1 and counts[letter] > counts.get(letter - 1, 0):
            return False
    return True


def brute_ssyt(shape, weight):
    """Oracle: filter all value assignments by the SSYT conditions."""
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    letters = len(weight)
    count = 0
    for values in product(range(1, letters + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        w = [0] * letters
        for v in values:
            w[v - 1] += 1
        if w != list(weight):
            continue
        ok = True
        for (i, j), v in t.items():
            if (i, j + 1) in t and t[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in t and t[(i + 1, j)] <= v:
                ok = False
                break
        if ok:
            count += 1
    return count


def dfs_kostka(lam, alpha):
    """Oracle: count SSYT of shape lam and weight alpha by depth-first filling.

    Fills cells row by row with the smallest admissible letters first; the
    cost grows with the count.  alpha may be any composition of |lam|.
    """
    lam, alpha = tuple(lam), tuple(alpha)
    assert sum(lam) == sum(alpha)
    if not lam:
        return 1
    letters = len(alpha)
    budget = list(alpha)
    rows = len(lam)
    # previous row's entries; row 0 has no column constraint
    above = [0] * lam[0]
    total = 0

    def fill_row(i, j, row):
        nonlocal total
        if j == lam[i]:
            if i + 1 == rows:
                total += 1
                return
            saved = above[: lam[i + 1]]
            above[: lam[i + 1]] = row[: lam[i + 1]]
            fill_row(i + 1, 0, [0] * lam[i + 1])
            above[: lam[i + 1]] = saved
            return
        lo = max(above[j] + 1, row[j - 1] if j else 1)
        for v in range(lo, letters + 1):
            if budget[v - 1] == 0:
                continue
            budget[v - 1] -= 1
            row[j] = v
            fill_row(i, j + 1, row)
            budget[v - 1] += 1

    fill_row(0, 0, [0] * lam[0])
    return total


def compositions(n):
    """Every composition of n into positive parts."""
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(1, n + 1) for rest in compositions(n - k)]


def brute_skew_ballot(outer, inner, weight):
    """Oracle: skew SSYT of given weight with ballot reading word, by filtering."""
    cells = [
        (i, j)
        for i, r in enumerate(outer)
        for j in range((inner[i] if i < len(inner) else 0), r)
    ]
    letters = len(weight)
    hits = []
    for values in product(range(1, letters + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        w = [0] * letters
        for v in values:
            w[v - 1] += 1
        if w != list(weight):
            continue
        ok = True
        for (i, j), v in t.items():
            if (i, j + 1) in t and t[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in t and t[(i + 1, j)] <= v:
                ok = False
                break
        if not ok:
            continue
        word = []
        for i, r in enumerate(outer):
            lo = inner[i] if i < len(inner) else 0
            for j in range(r - 1, lo - 1, -1):
                word.append(t[(i, j)])
        if is_ballot(word):
            hits.append("".join(map(str, word)))
    return hits


# -- ballot words -------------------------------------------------------------


def test_is_ballot_known():
    assert is_ballot([1, 1, 1, 2, 2, 1, 3, 3, 2])  # 111221332
    assert not is_ballot([2, 1])
    assert is_ballot([])
    assert is_ballot([1, 2, 1, 2, 3])
    assert not is_ballot([1, 2, 3, 3])


# -- Kostka numbers -----------------------------------------------------------


def test_kostka_superstandard_weight():
    for n in range(11):
        for lam in enumerate_partitions(n):
            assert kostka(lam, lam) == 1


def test_kostka_known_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 1), (2, 1, 1)) == 2
    assert kostka((2, 2), (1, 1, 1, 1)) == 2
    # the displayed 11-cell tableau shape/weight admits at least one filling
    assert kostka((5, 4, 2), (2, 3, 1, 3, 2)) >= 1


def test_kostka_against_bruteforce():
    for n in range(6):
        for lam in enumerate_partitions(n):
            for alpha in enumerate_partitions(n):
                assert kostka(lam, alpha) == brute_ssyt(lam, alpha)


def test_kostka_matches_dfs_on_every_composition():
    pairs = 0
    for n in range(9):
        weights = compositions(n)
        for lam in enumerate_partitions(n):
            for alpha in weights:
                assert kostka(lam, alpha) == dfs_kostka(lam, alpha), (lam, alpha)
                pairs += 1
    assert pairs == 4298


def test_kostka_zero_weight_parts():
    for lam in ((3, 1), (2, 2), (2, 1, 1)):
        for alpha in ((2, 0, 1, 1), (0, 2, 1, 1, 0), (1, 1, 0, 0, 2)):
            assert kostka(lam, alpha) == dfs_kostka(lam, alpha)
    assert kostka((), (0, 0)) == 1
    assert kostka((1,), (0, 0, 1)) == 1


def test_kostka_large_values():
    # the two Kostka queries of the benchmark's CLI stream, and a value the
    # tableau enumeration took seconds to reach
    assert kostka((6, 5, 3, 2), (2,) * 8) == 4340
    assert kostka((7, 4, 3, 2), (2,) * 8) == 4928
    assert kostka((7, 5, 4, 3, 1), (3, 3, 3, 2, 2, 2, 2, 2, 1)) == 52175


@pytest.mark.parametrize(
    "lam, alpha",
    [
        ((1,), (2, -1)),
        ((1, 2), (3,)),
        ((0,), (0,)),
        ((2,), (1.5, 0.5)),
        ((2,), ("2",)),
    ],
)
def test_kostka_rejects_invalid_input(lam, alpha):
    with pytest.raises(ValueError) as err:
        kostka(lam, alpha)
    assert not isinstance(err.value, SizeMismatchError)


def test_kostka_validates_after_an_equal_valid_call():
    # (1.0,) hashes and compares equal to (1,), so a memo in front of the
    # validation would answer it from the valid call
    assert kostka((1,), (1,)) == 1
    with pytest.raises(ValueError, match="nonnegative integers, got 1.0"):
        kostka((1,), (1.0,))


def test_kostka_weight_permutation_invariance():
    for n in range(6):
        for lam in enumerate_partitions(n):
            for alpha in enumerate_partitions(n):
                base = kostka(lam, alpha)
                for sigma in set(permutations(alpha)):
                    assert kostka(lam, sigma) == base


def test_kostka_positivity_iff_dominance():
    for n in range(9):
        for lam in enumerate_partitions(n):
            for alpha in enumerate_partitions(n):
                assert (kostka(lam, alpha) > 0) == dominance_leq(alpha, lam)


def test_kostka_standard_weight_is_dimension():
    for n in range(8):
        for lam in enumerate_partitions(n):
            assert kostka(lam, (1,) * n) == dimension_hlf(lam)


def test_kostka_size_mismatch():
    with pytest.raises(SizeMismatchError):
        kostka((2, 1), (2, 2))


# -- Littlewood-Richardson ----------------------------------------------------


def test_lr_worked_example_value_and_words():
    assert lr_coefficient((6, 4, 3), (3, 1), (4, 3, 2)) == 2
    words = brute_skew_ballot((6, 4, 3), (3, 1), (4, 3, 2))
    assert sorted(words) == ["111221332", "111222331"]


def test_lr_trivial_cases():
    for n in range(11):
        for lam in enumerate_partitions(n):
            assert lr_coefficient(lam, lam, ()) == 1
            assert lr_coefficient(lam, (), lam) == 1


def test_lr_two_cell_brute_force():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert len(brute_skew_ballot((2, 1), (1,), (1, 1))) == 1


def test_lr_non_containment_is_zero():
    assert lr_coefficient((2, 2), (3,), (1,)) == 0
    assert lr_coefficient((3, 1), (2, 2), ()) == 0


def test_lr_size_mismatch():
    with pytest.raises(SizeMismatchError):
        lr_coefficient((3, 1), (1,), (1,))


@pytest.mark.parametrize(
    "lam, mu, nu",
    [
        ((2, 1), (1,), (3, -1)),
        ((3, 1), (2, -1), (3,)),
        ((1, 2), (1,), (2,)),
        ((3, 1), (1,), (1, 2)),
        ((2, 0), (1,), (1,)),
    ],
)
def test_lr_rejects_invalid_input(lam, mu, nu):
    # each has matching sizes, so only the partition check can refuse it
    with pytest.raises(ValueError) as err:
        lr_coefficient(lam, mu, nu)
    assert not isinstance(err.value, SizeMismatchError)


def test_lr_validates_after_an_equal_valid_call():
    # (2.0, 1) hashes and compares equal to (2, 1), so a memo in front of
    # the validation would answer it from the valid call
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    with pytest.raises(ValueError, match="positive integers, got 2.0"):
        lr_coefficient((2.0, 1), (1,), (2,))


def test_lr_accepts_lists():
    assert lr_coefficient([2, 1], [1], [2]) == 1


def test_lr_against_bruteforce_small():
    for total in range(1, 6):
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    for nu in enumerate_partitions(total - k):
                        want = len(brute_skew_ballot(lam, mu, nu))
                        assert lr_coefficient(lam, mu, nu) == want
                        assert skew_schur_expansion(lam, mu).get(nu, 0) == want


def test_lr_symmetric_in_lower_arguments():
    for total in range(1, 8):
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    for nu in enumerate_partitions(total - k):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            lam, nu, mu
                        )


def test_lr_conjugation_symmetry():
    for total in range(1, 7):
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    for nu in enumerate_partitions(total - k):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            conjugate(lam), conjugate(mu), conjugate(nu)
                        )


# -- skew Schur expansion ------------------------------------------------------


def test_skew_expansion_matches_lr():
    for total in range(7):
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    exp = skew_schur_expansion(lam, mu)
                    for nu in enumerate_partitions(total - k):
                        assert exp.get(nu, 0) == lr_coefficient(lam, mu, nu)
                    assert all(v > 0 for v in exp.values())


def test_skew_expansion_straight_shape():
    assert skew_schur_expansion((3, 2, 1), ()) == {(3, 2, 1): 1}
    assert skew_schur_expansion((2, 2), (2, 2)) == {(): 1}
    assert skew_schur_expansion((1,), (2,)) == {}


def count_skew_syt(outer, inner):
    """Oracle: standard fillings of a skew shape, placed greedily."""
    cellset = {
        (i, j)
        for i, r in enumerate(outer)
        for j in range((inner[i] if i < len(inner) else 0), r)
    }
    total = 0

    def rec(filled):
        nonlocal total
        if len(filled) == len(cellset):
            total += 1
            return
        for i, j in cellset - filled:
            left = (i, j - 1)
            up = (i - 1, j)
            if left in cellset and left not in filled:
                continue
            if up in cellset and up not in filled:
                continue
            filled.add((i, j))
            rec(filled)
            filled.remove((i, j))

    rec(set())
    return total


def test_skew_syt_counts_from_lr():
    # number of skew SYT equals sum of c^lam_{mu,nu} * f^nu
    checked = 0
    for total in range(6):
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    if not contains(mu, lam):
                        continue
                    expected = sum(
                        lr_coefficient(lam, mu, nu) * dimension_hlf(nu)
                        for nu in enumerate_partitions(total - k)
                    )
                    assert expected == count_skew_syt(lam, mu)
                    checked += 1
    assert checked == 110


# -- the reduced shape against the search on the raw shape ---------------------


def full_budget(outer, inner):
    n = sum(outer) - sum(inner)
    return (n,) * n


def assert_reduction_agrees(outer, inner, weight):
    # the search runs on the raw, unreduced shape; it needs inner inside outer
    want = _lr_search(outer, inner, weight) if contains(inner, outer) else {}
    assert _lr_tableaux(outer, inner, weight) == want, (outer, inner, weight)


def test_reduction_agrees_with_the_search_on_every_pair():
    for total in range(11):
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    assert_reduction_agrees(lam, mu, full_budget(lam, mu))


def test_reduction_agrees_with_the_search_on_every_budget():
    for total in range(9):
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    for nu in enumerate_partitions(total - k):
                        assert_reduction_agrees(lam, mu, nu)


def test_reduction_agrees_on_shifted_shapes():
    # lam/mu moved c columns right, under r rows that inner fills
    for total in range(6):
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    if not contains(mu, lam):
                        continue
                    for r, c in product(range(3), repeat=2):
                        top = ((lam[0] if lam else 0) + c,) * r
                        outer = top + tuple(x + c for x in lam)
                        inner = top + tuple(x + c for x in mu)
                        inner += (c,) * (len(lam) - len(mu))
                        weight = full_budget(lam, mu)
                        assert_reduction_agrees(outer, inner, weight)
                        assert _lr_tableaux(outer, inner, weight) == _lr_search(
                            lam, mu, weight
                        )


def test_reduction_agrees_across_empty_rows_and_columns():
    # alpha/gamma above and right of beta, x - beta_1 empty columns and e
    # empty rows of length y between them
    small = [p for n in range(4) for p in enumerate_partitions(n)]
    for alpha, gamma, beta in product(small, repeat=3):
        if not alpha or not contains(gamma, alpha):
            continue
        b = beta[0] if beta else 0
        for x, e in product(range(b, b + 3), range(3)):
            for y in {b, x}:
                outer = tuple(x + a for a in alpha) + (y,) * e + beta
                inner = tuple(x + g for g in gamma)
                inner += (x,) * (len(alpha) - len(gamma)) + (y,) * e
                assert_reduction_agrees(outer, inner, full_budget(outer, inner))


def test_reduction_agrees_inside_every_rectangle():
    for a, b in product(range(1, 6), repeat=2):
        rect = (a,) * b
        for k in range(a * b + 1):
            for mu in enumerate_partitions(k):
                if contains(mu, rect):
                    assert_reduction_agrees(rect, mu, full_budget(rect, mu))
                    turned = tuple(a - m for m in reversed(mu + (0,) * (b - len(mu))))
                    assert_reduction_agrees(rect, mu, tuple(x for x in turned if x))


def test_reduction_keeps_only_what_fits_the_budget():
    assert _lr_tableaux((3, 2), (), (2, 2, 1)) == {}
    assert _lr_tableaux((3, 3), (1,), (2, 2, 1)) == {}
    assert lr_coefficient((3, 2), (), (2, 2, 1)) == 0


def engine_expansions(monkeypatch, search):
    """The (beta, delta) the engine expands in a cold ip23 n = 4 sweep and a
    cold k = 3 saturation search, with search standing in for the DFS."""
    seen = []

    def record(big, delta):
        seen.append((big, delta))
        return skew_schur_expansion(big, delta)

    monkeypatch.setattr(kronecker, "skew_schur_expansion", record)
    monkeypatch.setattr(tableaux, "_lr_search", search)
    clear_memo()
    assert run_property("ip23", {"n": 4}).status == "pass"
    clear_memo()
    saturation = search_saturation_counterexample(3, 4, 100)
    assert saturation.status == "counterexample-confirmed"
    return seen


def test_reduction_agrees_on_the_engine_expansions(monkeypatch):
    for big, delta in set(engine_expansions(monkeypatch, _lr_search)):
        assert_reduction_agrees(big, delta, full_budget(big, delta))


def test_engine_expansions_never_search(monkeypatch):
    # every skew shape the engine meets here is straight or a turned
    # straight shape once reduced, so each has one constituent
    def refuse(outer, inner, weight):
        raise AssertionError(f"searched {outer}/{inner}")

    seen = set(engine_expansions(monkeypatch, refuse))
    assert len(seen) == 112
    assert all(len(skew_schur_expansion(*shape)) == 1 for shape in seen)


def test_murnaghan_still_searches(monkeypatch):
    calls = []

    def search(outer, inner, weight):
        calls.append((outer, inner))
        return _lr_search(outer, inner, weight)

    monkeypatch.setattr(tableaux, "_lr_search", search)
    clear_memo()
    assert run_property("murnaghan", {"max_size": 5}).status == "pass"
    assert len(calls) == 21 and len(set(calls)) == 10


@st.composite
def small_partition(draw, max_size=8):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=remaining))
        parts.append(part)
        remaining -= part
    return tuple(sorted(parts, reverse=True))


@given(small_partition())
@settings(max_examples=30, deadline=None)
def test_kostka_at_standard_weight_property(lam):
    assert kostka(lam, (1,) * sum(lam)) == dimension_hlf(lam)
