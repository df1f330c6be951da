import math
from collections import Counter
from functools import lru_cache
from importlib import import_module
from itertools import combinations, product
from pkgutil import iter_modules

import pytest

import artifact
from artifact import characters
from artifact.characters import (
    ClassSum,
    character,
    character_table,
    clear_memo,
    conjugacy_classes,
    strip_row,
)
from artifact.kronecker import kron_schur_oracle, kron_tworow, reduced_kron
from artifact.partitions import (
    SizeMismatchError,
    centralizer_order,
    conjugate,
    count_bounded,
    dimension_hlf,
    enumerate_partitions,
    hook_lengths,
    remove_horizontal_strips,
)
from artifact.plethysm import pleth_coefficient, pleth_hn_expansion
from artifact.tableaux import lr_coefficient
from artifact.verify import run_property
from test_partitions import class_size


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


def char_oracle(lam, alpha):
    """Oracle: sum of (-1)^height over all rim-hook tableaux, filtering every
    assignment of letters to cells through the admissibility check."""
    cells = [(i, j) for i, r in enumerate(lam) for j in range(r)]
    letters = len(alpha)
    total = 0
    for values in product(range(1, letters + 1), repeat=len(cells)):
        filling = []
        pos = 0
        for r in lam:
            filling.append(tuple(values[pos : pos + r]))
            pos += r
        try:
            ht = rim_hook_heights(tuple(filling), alpha)
        except ValueError:
            continue
        total += -1 if ht & 1 else 1
    return total


def rim_hook_removals(shape, t):
    """All (smaller shape, height) from stripping a length-t rim hook, found
    by brute force over cell subsets: the complement must stay a diagram and
    the subset must be edge-connected with no 2x2 block."""
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    out = []
    for sub in combinations(cells, t):
        strip = set(sub)
        rest = set(cells) - strip
        rows = Counter(i for i, _ in rest)
        lens = [rows.get(i, 0) for i in range(len(shape))]
        if any((i, j) not in rest for i in rows for j in range(rows[i])):
            continue
        if any(lens[i] < lens[i + 1] for i in range(len(lens) - 1)):
            continue
        if any(
            {(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)} <= strip
            for i, j in strip
        ):
            continue
        seen, stack = set(), [sub[0]]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            i, j = c
            stack.extend(
                nb
                for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
                if nb in strip
            )
        if seen != strip:
            continue
        while lens and lens[-1] == 0:
            lens.pop()
        out.append((tuple(lens), len({i for i, _ in strip}) - 1))
    return out


@lru_cache(maxsize=None)
def char_smallest_first(shape, alpha):
    """Independent MN recursion consuming the smallest cycle first."""
    if not alpha:
        return 1
    t, rest = alpha[-1], alpha[:-1]
    return sum(
        (-1) ** height * char_smallest_first(child, rest)
        for child, height in rim_hook_removals(shape, t)
    )


# -- admissibility helper ------------------------------------------------------


def test_rim_hook_tableau_worked_example():
    rows = ((1, 1, 2, 3, 3, 3), (1, 2, 2, 3, 4), (2, 2, 3, 3, 4))
    assert rim_hook_heights(rows, (3, 5, 6, 2)) == 6


def test_rim_hook_tableau_rejections():
    with pytest.raises(ValueError):  # 2x2 block in one letter
        rim_hook_heights(((1, 1), (1, 1)), (4,))
    with pytest.raises(ValueError):  # letter 2 not edge-connected
        rim_hook_heights(((1, 2, 2), (2,)), (1, 3))
    with pytest.raises(ValueError):  # wrong multiplicities
        rim_hook_heights(((1, 1), (2,)), (1, 2))
    with pytest.raises(ValueError):  # letters <= 1 not left-justified
        rim_hook_heights(((2, 1), (1,)), (2, 1))


def test_rim_hook_tableau_flat_case():
    assert rim_hook_heights(((1, 1), (2, 2)), (2, 2)) == 0


# -- single character values ---------------------------------------------------


def test_character_small_knowns():
    assert character((), ()) == 1
    assert character((2, 1), (3,)) == -1
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (1, 1, 1)) == 2


def test_character_identity_class_gives_dimension():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert character(lam, (1,) * n) == dimension_hlf(lam)


def test_character_sign_representation():
    for n in range(1, 11):
        for alpha in enumerate_partitions(n):
            assert character((1,) * n, alpha) == (-1) ** (n - len(alpha))


def test_character_trivial_representation():
    for n in range(1, 11):
        for alpha in enumerate_partitions(n):
            assert character((n,), alpha) == 1


def test_character_on_full_cycle_hook_formula():
    # chi^lam((n)) is (-1)^r when lam is the hook (n-r, 1^r), else 0
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            expected = 0
            if lam[0] + len(lam) - 1 == n:
                expected = (-1) ** (len(lam) - 1)
            assert character(lam, (n,)) == expected


def test_character_vanishes_off_hook_lengths():
    # MN: a part that is not a hook length of lam leaves no rim hook to remove
    pairs = 0
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            hooks = {h for row in hook_lengths(lam) for h in row}
            for alpha in enumerate_partitions(n):
                if not hooks.issuperset(alpha):
                    assert character(lam, alpha) == 0
                    pairs += 1
    assert pairs == 2651


def test_character_size_mismatch():
    with pytest.raises(SizeMismatchError):
        character((2, 1), (2, 2))


# -- dual routes ----------------------------------------------------------------


def test_character_against_rim_hook_tableau_enumeration():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for alpha in enumerate_partitions(n):
                assert character(lam, alpha) == char_oracle(lam, alpha)


def test_character_order_independence():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for alpha in enumerate_partitions(n):
                assert character(lam, alpha) == char_smallest_first(
                    lam, alpha
                )


def test_kernel_rows_match_smallest_first_recursion():
    # the bit-word recursion behind every dense row, against removals of
    # rim hooks found cell by cell, consuming the cycle type the other way
    clear_memo()
    for n in range(1, 12):
        classes, _ = conjugacy_classes(n)
        for lam in classes:
            assert strip_row(lam, n) == tuple(
                char_smallest_first(lam, a) for a in classes
            )


def test_kernel_rows_match_point_route():
    # rows come a class block at a time; single values come from _mn
    for n in range(1, 17):
        clear_memo()
        classes, _ = conjugacy_classes(n)
        for lam in classes:
            assert strip_row(lam, n) == tuple(character(lam, a) for a in classes)


def test_conjugacy_classes_and_their_sizes():
    for n in range(26):
        classes, sizes = conjugacy_classes(n)
        assert classes == tuple(enumerate_partitions(n))
        assert sizes == tuple(map(class_size, classes))
        assert sum(sizes) == math.factorial(n)
        assert conjugacy_classes(n)[1] is sizes


def _shape(w):
    """The partition whose beta-set word is w."""
    betas = [b for b in range(w.bit_length() - 1, -1, -1) if w >> b & 1]
    return tuple(b - (len(betas) - 1 - i) for i, b in enumerate(betas))


def test_row_store_holds_bounded_rows():
    # every stored (word, m) row of shape mu runs over the classes of m
    # with parts <= q for some bound q, in enumerate_partitions order, and
    # holds the sum of chi^eps over eps = mu plus a horizontal strip of
    # r = m - |mu| cells
    clear_memo()
    character_table(12)
    for rho, t in (((2, 1), 7), ((3, 3), 9), ((), 5), ((4, 2, 1), 12)):
        strip_row(rho, t)
    assert characters._rows
    assert any(m > sum(_shape(w)) for w, m in characters._rows)
    for (w, m), row in characters._rows.items():
        mu = _shape(w)
        r = m - sum(mu)
        assert r >= 0 and 1 <= len(row)
        classes = enumerate_partitions(m)[-len(row) :]
        assert classes == enumerate_partitions(m, max_part=classes[0][0])
        if r:
            grown = [
                e for e in enumerate_partitions(m) if mu in remove_horizontal_strips(e, r)
            ]
            assert row == tuple(sum(character(e, a) for e in grown) for a in classes)
        else:
            assert row == tuple(character(mu, a) for a in classes)


BOUND_ORDERS = {
    "increasing": range(1, 10),
    "decreasing": range(9, 0, -1),
    "mixed": (4, 2, 7, 1, 9, 3, 8, 5, 6),
}


@pytest.mark.parametrize("order", BOUND_ORDERS)
def test_row_store_builds_bounds_in_any_order(order):
    # one row per (word, size) over the largest bound built so far: a
    # smaller bound reads its tail, a larger one puts the missing blocks in
    # front; every bound of S_9 asked for in this order reads the same
    # values as the point route
    m = 9
    for mu in ((4, 3, 2), (3, 1), ()):
        clear_memo()
        w, r = characters._word(mu), m - sum(mu)
        grown = [
            e for e in enumerate_partitions(m) if mu in remove_horizontal_strips(e, r)
        ]
        largest = 0
        for q in BOUND_ORDERS[order]:
            classes = enumerate_partitions(m, max_part=q)
            want = tuple(sum(character(e, a) for e in grown) for a in classes)
            assert characters._row(w, r, m, q) == want
            largest = max(largest, q)
            assert len(characters._rows[w, m]) == count_bounded(m, largest, m)


def test_strip_rows_match_kernel_row_sums():
    # Pieri: strip_row(rho, t) is the sum of the rows chi^eps over the
    # eps |- t with eps/rho a horizontal strip; strip rows are built first
    # in an empty store, the rows chi^eps after it is emptied again
    clear_memo()
    strips = {
        (rho, t): strip_row(rho, t)
        for t in range(13)
        for s in range(t + 1)
        for rho in enumerate_partitions(s)
    }
    clear_memo()
    for (rho, t), row in strips.items():
        r = t - sum(rho)
        grown = [
            e for e in enumerate_partitions(t) if rho in remove_horizontal_strips(e, r)
        ]
        assert grown
        assert row == tuple(map(sum, zip(*(strip_row(e, t) for e in grown))))


# -- orthogonality and symmetries ------------------------------------------------


def test_column_orthogonality():
    for n in range(1, 11):
        lams = list(enumerate_partitions(n))
        for alpha in lams:
            for beta in lams:
                s = sum(
                    character(l, alpha) * character(l, beta) for l in lams
                )
                assert s == (centralizer_order(alpha) if alpha == beta else 0)


def test_row_orthogonality():
    for n in range(1, 11):
        lams = list(enumerate_partitions(n))
        fact = math.factorial(n)
        for lam in lams:
            for mu in lams:
                s = sum(
                    class_size(a) * character(lam, a) * character(mu, a)
                    for a in lams
                )
                assert s == (fact if lam == mu else 0)


def test_conjugation_twists_by_sign():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            lamc = conjugate(lam)
            for alpha in enumerate_partitions(n):
                assert character(lamc, alpha) == character(lam, alpha) * (
                    -1
                ) ** (n - len(alpha))


# -- tables ----------------------------------------------------------------------


def test_table_n3_row_21():
    t = character_table(3)
    assert list(t) == list(t[(2, 1)]) == [(3,), (2, 1), (1, 1, 1)]
    assert t[(2, 1)] == {(3,): -1, (2, 1): 0, (1, 1, 1): 2}


def test_table_first_row_all_ones():
    for n in range(1, 9):
        t = character_table(n)
        assert all(v == 1 for v in t[(n,)].values())


def test_table_column_sum_of_squares():
    for n in range(1, 13):
        t = character_table(n)
        for alpha in t:
            s = sum(t[lam][alpha] ** 2 for lam in t)
            assert s == centralizer_order(alpha)


def test_table_limit_guard():
    with pytest.raises(ValueError):
        character_table(23)
    with pytest.raises(ValueError):
        character_table(0)


def test_class_sum_keeps_the_nonzero_weights_in_order():
    weights = {(3,): 2, (2, 1): 0, (1, 1, 1): 4}
    support = ClassSum(weights)
    assert support.classes == ((3,), (1, 1, 1))
    assert support.weights == (2, 4)
    for lam in enumerate_partitions(3):
        want = sum(w * character(lam, a) for a, w in weights.items())
        assert support.contract(lam) == want


# every module-level @cache table of the package, by module
TABLES = {
    "characters": ("_layout", "_word", "conjugacy_classes"),
    "partitions": ("count_bounded",),
    "tableaux": ("_strip_chains", "_lr_core", "skew_schur_expansion"),
    "kronecker": ("_table_sum", "_engine_value", "_vertical_strips"),
    "plethysm": ("_class_vector", "_hn_coeffs"),
    "verify": ("_square_support",),
}


def test_clear_memo_empties_every_store():
    # TABLES names every cached function the package's modules hold, so a
    # new @cache shows here
    submodules = iter_modules(artifact.__path__, "artifact.")
    modules = [import_module(m.name) for m in submodules]
    found = {
        (value.__module__, value.__name__)
        for module in modules
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }
    named = {("artifact." + m, name) for m, names in TABLES.items() for name in names}
    assert found == named
    tables = {name: getattr(import_module(m), name) for m, name in named}

    def sizes():
        return {name: table.cache_info().currsize for name, table in tables.items()}

    run_property("saxl", {"k": 3})
    pleth_hn_expansion(3, 2)
    assert reduced_kron((2, 1), (2, 1), (2, 1)) == 9
    assert kron_schur_oracle((2, 1), (2, 1), (2, 1)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert kron_tworow(3, 2, 2) == 1
    assert character((3, 1), (2, 1, 1)) == 1
    assert characters._memo and characters._rows
    assert 0 not in sizes().values()
    clear_memo()
    assert characters._memo == {} and characters._rows == {}
    assert sizes() == dict.fromkeys(tables, 0)


def test_clear_memo_empties_the_kernel():
    # the row store and the class lists with their sizes
    strip_row((3, 2, 1), 6)
    conjugacy_classes(6)
    assert characters._rows
    assert conjugacy_classes.cache_info().currsize
    clear_memo()
    assert conjugacy_classes.cache_info().currsize == 0
    assert characters._rows == {}


def test_clear_memo_drops_the_class_layouts():
    strip_row((3, 2, 1), 6)
    assert characters._layout.cache_info().currsize
    clear_memo()
    assert characters._layout.cache_info().currsize == 0


def test_clear_memo_drops_class_sums_built_from_a_wrong_row(corrupted_row):
    # h_2[h_2] = s_4 + s_22, so the coefficient of s_4 is 1; with chi^(2) of
    # S_2 stored as (1, 3) the class vector of h_2[h_2] reads 7, and its
    # cached ClassSum keeps 7 until clear_memo() drops it
    corrupted_row((2,), 2, (1, 3))
    assert pleth_coefficient((4,), (2,), (2,)) == 7
    clear_memo()
    assert pleth_coefficient((4,), (2,), (2,)) == 1


# -- class layouts and conjugate reads ---------------------------------------------


def test_layout_counts_the_class_blocks():
    # bounded[q] classes of S_m have parts <= q, and firsts[t] have first
    # part t: the partitions of m - t with parts <= t
    for m in range(31):
        firsts, bounded = characters._layout(m)
        assert len(firsts) == len(bounded) == m + 1 and firsts[0] == 0
        for q in range(m + 1):
            assert bounded[q] == count_bounded(m, q, m)
        for t in range(1, m + 1):
            assert firsts[t] == count_bounded(m - t, t, m - t)
        if 1 <= m <= 12:
            heads = Counter(alpha[0] for alpha in enumerate_partitions(m))
            assert firsts[1:] == tuple(heads[t] for t in range(1, m + 1))


def _rows_built_at(n, monkeypatch):
    """The words whose full row of S_n the block recursion builds from here on."""
    built = []
    build, full = characters._row, len(conjugacy_classes(n)[0])

    def counted(w, r, m, q):
        fresh = m == n and len(characters._rows.get((w, m), ())) < full
        row = build(w, r, m, q)
        if fresh and len(row) == full:
            built.append(w)
        return row

    monkeypatch.setattr(characters, "_row", counted)
    return built


def test_cold_kron_table_reads_nine_rows_through_a_conjugate(monkeypatch):
    # S_8 has 10 conjugate pairs and 2 self-conjugate shapes; classes run
    # from (8) down, so the first shape of each pair is built and the
    # second read, except (1^8), which the first read builds as the sign row
    from artifact.kronecker import kron_table

    clear_memo()
    built = _rows_built_at(8, monkeypatch)
    kron_table(8)
    classes, _ = conjugacy_classes(8)
    stored = {w for w, m in characters._rows if m == 8}
    assert stored == set(map(characters._word, classes))
    assert len(built) == len(set(built)) == 13
    read = stored - set(built)
    assert len(read) == 9
    assert characters._word((1,) * 8) in built
    for lam in classes:
        if characters._word(lam) in read:
            assert characters._word(conjugate(lam)) in built


def test_conjugate_reads_match_the_recursion(monkeypatch):
    # chi^lam read as sgn * chi^lam' equals chi^lam built in a cleared
    # store; a bounded tail of chi^lam' is not read, so lam is built
    for n in range(1, 13):
        classes, _ = conjugacy_classes(n)
        want = {}
        for lam in classes:
            clear_memo()
            want[lam] = strip_row(lam, n)
        for lam in classes:
            twin = conjugate(lam)
            if twin == lam:
                continue
            w = characters._word(lam)
            clear_memo()
            strip_row(twin, n)
            built = _rows_built_at(n, monkeypatch)
            assert strip_row(lam, n) == want[lam]
            assert characters._rows[w, n] == want[lam]
            assert w not in built or lam == (1,) * n
            monkeypatch.undo()
            clear_memo()
            characters._row(characters._word(twin), 0, n, n - 1)
            assert strip_row(lam, n) == want[lam]


def test_sign_row_after_the_trivial_row():
    # (1^t)'s conjugate (t) is stored, and the sign row is built by the
    # recursion itself rather than read through the row it would make
    for t in range(1, 13):
        clear_memo()
        classes, _ = conjugacy_classes(t)
        assert strip_row((t,), t) == (1,) * len(classes)
        sign = tuple((-1) ** (t - len(alpha)) for alpha in classes)
        assert strip_row((1,) * t, t) == sign
        assert characters._rows[characters._word((1,) * t), t] == sign
