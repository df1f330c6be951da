"""Acceptance sweep: one test per criterion, exact integers, enforced budgets.

Every check is a zero-tolerance integer comparison.  Each test prints a
single [criterion NN] PASS/FAIL line with its elapsed time (visible under
-s, or via pytest -v through the test name) and fails if it exceeds its
runtime budget.  Every criterion, the saturation search of criterion 12
included, runs by default.
"""

import time
from itertools import product

from artifact import (
    centralizer_order,
    character_table,
    dimension_hlf,
    enumerate_partitions,
    kron_char,
    kron_schur_oracle,
    kron_table,
    kron_tworow,
    lr_coefficient,
    padding_threshold,
    pleth_coefficient,
    pleth_hn_expansion,
    reduced_kron,
    run_property,
    search_saturation_counterexample,
)
from artifact.characters import clear_memo
from artifact.symfunc import multiply, schur_in_monomials, to_schur_basis
from test_characters import rim_hook_heights
from test_kronecker import padded_oracle
from test_tableaux import is_ballot


def _budget(num, limit, started):
    elapsed = time.perf_counter() - started
    ok = elapsed < limit
    print("[criterion %02d] %s in %.2fs (budget %ss)" % (num, "PASS" if ok else "FAIL", elapsed, limit))
    assert ok, "criterion %02d blew its budget: %.2fs >= %ss" % (num, elapsed, limit)


def test_criterion_01_worked_examples():
    started = time.perf_counter()
    assert kron_char((2, 1), (2, 1), (2, 1)) == 1
    assert lr_coefficient((6, 4, 3), (3, 1), (4, 3, 2)) == 2
    # s_(2)[s_(1,1)] = s_(2,2) + s_(1,1,1,1), nothing else
    expansion = {
        lam: pleth_coefficient(lam, (1, 1), (2,)) for lam in enumerate_partitions(4)
    }
    assert expansion == {
        (4,): 0,
        (3, 1): 0,
        (2, 2): 1,
        (2, 1, 1): 0,
        (1, 1, 1, 1): 1,
    }
    rows = ((1, 1, 2, 3, 3, 3), (1, 2, 2, 3, 4), (2, 2, 3, 3, 4))
    assert rim_hook_heights(rows, (3, 5, 6, 2)) == 6
    assert is_ballot(tuple(int(c) for c in "111221332"))
    _budget(1, 1, started)


def test_criterion_02_character_table_integrity():
    started = time.perf_counter()
    for n in range(1, 13):
        tbl = character_table(n)
        parts = list(enumerate_partitions(n))
        identity = (1,) * n
        for alpha in parts:
            assert (
                sum(tbl[lam][alpha] ** 2 for lam in parts)
                == centralizer_order(alpha)
            )
        for lam in parts:
            assert tbl[lam][identity] == dimension_hlf(lam)
        # row orthogonality, phrased through the trivial-constituent count
        hook = (n,)
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                assert kron_char(lam, mu, hook) == (1 if lam == mu else 0)
    _budget(2, 30, started)


def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    for n, expected in ((4, 125), (5, 343)):
        parts = list(enumerate_partitions(n))
        trips = list(product(parts, repeat=3))
        assert len(trips) == expected
        for lam, mu, nu in trips:
            assert kron_char(lam, mu, nu) == kron_schur_oracle(lam, mu, nu)
    for total in range(0, 8):
        nvars = max(total, 1)
        for a in range(0, total + 1):
            for mu in enumerate_partitions(a):
                for nu in enumerate_partitions(total - a):
                    vec = to_schur_basis(
                        multiply(
                            schur_in_monomials(mu, nvars),
                            schur_in_monomials(nu, nvars),
                        )
                    )
                    for lam in enumerate_partitions(total):
                        assert vec.coeffs.get(lam, 0) == lr_coefficient(lam, mu, nu)
    _budget(3, 120, started)


def test_criterion_04_two_row_identity():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 13):
        for d in range(1, 13):
            if n * d > 12:
                continue
            vec = pleth_hn_expansion(d, n)
            for k in range(0, n * d // 2 + 1):
                lam = (n * d - k, k) if k else (n * d,)
                value = kron_char(lam, (n,) * d, (n,) * d)
                assert value == kron_tworow(n, d, k)
                assert value == vec.coeffs.get(lam, 0)
                checked += 1
    assert checked == 161
    _budget(4, 120, started)


def test_criterion_05_murnaghan_stability():
    started = time.perf_counter()
    report = run_property("murnaghan", {"max_size": 5})
    assert report.status == "pass"
    assert report.checked_count == 394
    _budget(5, 120, started)


def test_criterion_06_symmetries_and_dimension_sum():
    started = time.perf_counter()
    for n in range(1, 8):
        assert run_property("kron-symmetry", {"n": n}).status == "pass"
        assert run_property("transpose", {"n": n}).status == "pass"
    for n in range(1, 9):
        assert run_property("dimension-sum", {"n": n}).status == "pass"
    _budget(6, 180, started)


def test_criterion_07_saxl_instances():
    started = time.perf_counter()
    for k, targets in ((3, 11), (4, 42), (5, 176)):
        report = run_property("saxl", {"k": k})
        assert report.status == "pass"
        assert report.checked_count == targets
    _budget(7, 120, started)


def test_criterion_08_character_lower_bound():
    started = time.perf_counter()
    for n in range(1, 13):
        assert run_property("char-bound", {"n": n}).status == "pass"
    _budget(8, 120, started)


def test_criterion_09_upper_bound():
    started = time.perf_counter()
    for n in range(1, 9):
        assert run_property("pp20-bound", {"n": n}).status == "pass"
    _budget(9, 120, started)


def test_criterion_10_foulkes_instances():
    started = time.perf_counter()
    for d, n in ((3, 2), (4, 2), (5, 2), (4, 3)):
        assert run_property("foulkes", {"d": d, "n": n}).status == "pass"
    _budget(10, 300, started)


def test_criterion_11_reduced_kronecker():
    started = time.perf_counter()
    # Balanced triples (|beta| + |gamma| = |alpha|): here the reduced
    # coefficient is an LR number, computed by an independent route.
    checked = 0
    for s in range(0, 5):
        for alpha in enumerate_partitions(s):
            for b in range(0, s + 1):
                for beta in enumerate_partitions(b):
                    for gamma in enumerate_partitions(s - b):
                        assert reduced_kron(alpha, beta, gamma) == lr_coefficient(
                            alpha, beta, gamma
                        )
                        checked += 1
    assert checked == 143
    for n in range(1, 6):
        assert run_property("ip23", {"n": n}).status == "pass"
    _budget(11, 300, started)


def test_criterion_12_extended_saturation():
    started = time.perf_counter()
    base = ((1,) * 8, (1,) * 8, (3, 3))
    assert reduced_kron(*base) == 0
    # same value through the padded oracle, at sizes 28 and 29
    assert padding_threshold(*base) == 28
    assert padded_oracle(*base) == 0
    report = search_saturation_counterexample(3, 4, size_cap=100)
    assert report.status in ("counterexample-confirmed", "inconclusive-within-range")
    assert report.witness["base_value"] == 0
    if report.status == "counterexample-confirmed":
        assert 2 <= report.witness["stretch"] <= 4
        assert report.witness["value"] > 0
    _budget(12, 1800, started)


def test_criterion_13_performance():
    started = time.perf_counter()
    table_start = time.perf_counter()
    serial = kron_table(8)
    table_elapsed = time.perf_counter() - table_start
    assert table_elapsed < 60
    assert len(serial) == 2024  # multisets of size 3 over the 22 partitions
    chars_start = time.perf_counter()
    tbl = character_table(15)
    chars_elapsed = time.perf_counter() - chars_start
    assert chars_elapsed < 10
    assert len(tbl) == 176
    _budget(13, 75, started)


def test_criterion_14_saxl_staircase_k7():
    # 3,718 targets at n = 28, each contracted on the 159 classes where
    # |C_a| chi^delta(a)^2 is nonzero
    started = time.perf_counter()
    report = run_property("saxl", {"k": 7})
    assert report.status == "pass"
    assert report.checked_count == 3718
    # the sweep leaves about 22,000 MN memo entries and about 16,000 node
    # values in the staircase's ClassSum; clear_memo() drops both
    clear_memo()
    _budget(14, 60, started)


def test_criterion_14_saxl_staircase_k8():
    # 17,977 targets at n = 36, each contracted on the 474 classes where
    # |C_a| chi^delta(a)^2 is nonzero; about 2 s and 85 MB
    started = time.perf_counter()
    report = run_property("saxl", {"k": 8})
    assert report.status == "pass"
    assert report.checked_count == 17977
    clear_memo()
    _budget(14, 60, started)
