from functools import lru_cache
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import characters, plethysm
from artifact.characters import (
    ClassSum,
    character,
    clear_memo,
    conjugacy_classes,
    exact_quotient,
    strip_row,
)
from artifact.cli import main
from artifact.partitions import (
    SizeMismatchError,
    check_partition,
    dimension_hlf,
    enumerate_partitions,
    hook_lengths,
)
from artifact.plethysm import foulkes_violations, pleth_coefficient, pleth_hn_expansion
from artifact.symfunc import (
    SchurVector,
    plethysm_compose,
    schur_in_monomials,
    to_schur_basis,
)


def sym_power_dimension(d, n):
    """dim Sym^d(Sym^n V) for dim V = d, counted directly as multisets.

    Sym^n V has binomial(n+d-1, n) monomial basis elements, and the d-th
    symmetric power picks an unordered multiset of d of those.  This is what
    evaluating h_d[h_n] at x_1 = ... = x_d = 1 must reproduce.
    """
    inner = comb(n + d - 1, n)
    return comb(inner + d - 1, d)


def gl_dimension(lam, nvars):
    """Number of column-strict fillings of lam with entries at most nvars.

    Evaluated by the hook-content formula; the product quotient is exact or
    the formula has been transcribed wrong.
    """
    check_partition(lam)
    if len(lam) > nvars:
        return 0
    num = den = 1
    for i, row in enumerate(hook_lengths(lam)):
        for j, hook in enumerate(row):
            num *= nvars - i + j
            den *= hook
    return exact_quotient(
        num, den, "hook-content quotient of %r in %d variables", lam, nvars
    )


@lru_cache(maxsize=None)
def brute_expansion(inner, outer):
    """Schur expansion of s_outer[s_inner] by filling composite tableaux."""
    nvars = max(1, sum(outer) * len(inner))
    return to_schur_basis(plethysm_compose(outer, inner, nvars)).coeffs


@pytest.mark.parametrize(
    "target,inner,outer,want",
    [
        ((2, 2), (1, 1), (2,), 1),
        ((3, 1), (1, 1), (2,), 0),
        ((4,), (2,), (2,), 1),
        ((3, 1), (2,), (2,), 0),
        ((2, 2), (2,), (2,), 1),
        ((2, 1, 1), (2,), (2,), 0),
        ((1, 1, 1, 1), (2,), (2,), 0),
        ((1, 1, 1, 1), (1, 1), (2,), 1),
        ((2, 1, 1), (1, 1), (2,), 0),
    ],
)
def test_coefficient_knowns(target, inner, outer, want):
    assert pleth_coefficient(target, inner, outer) == want


def test_identity_outer():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert pleth_coefficient(mu, mu, (1,)) == 1


def test_coefficient_guards():
    with pytest.raises(SizeMismatchError):
        pleth_coefficient((3,), (2,), (2,))
    with pytest.raises(ValueError):
        pleth_coefficient((20,), (4,), (5,))  # over the 16-cell default cap
    # raising the cap makes the same query legal
    assert pleth_coefficient((20,), (4,), (5,), cap=20) == 1


def test_long_target_is_zero():
    # constituents of s_{(2)}[s_{(2)}] live in at most 2 rows
    assert pleth_coefficient((1, 1, 1, 1), (2,), (2,)) == 0


def test_no_constituent_passes_either_bound():
    # the length and first-row cuts of pleth_coefficient lose nothing
    for total_inner in range(1, 9):
        for total_outer in range(1, 8 // total_inner + 1):
            for inner in enumerate_partitions(total_inner):
                for outer in enumerate_partitions(total_outer):
                    for lam in brute_expansion(inner, outer):
                        assert len(lam) <= total_outer * len(inner)
                        assert lam[0] <= total_outer * inner[0]


def test_contract_matches_dense_rows():
    # the trie contraction against the dense dot product with the character
    # row, on every target of every (inner, outer) of degree at most 12; the
    # class vectors are rebuilt and the MN memo is cleared first, so contract
    # computes every value it reads
    for degree in range(1, 13):
        clear_memo()
        supports = [
            plethysm._class_vector(outer, inner)[0]
            for m in range(1, degree + 1)
            if degree % m == 0
            for inner in enumerate_partitions(m)
            for outer in enumerate_partitions(degree // m)
        ]
        clear_memo()
        classes, _ = conjugacy_classes(degree)
        got = [[support.contract(lam) for lam in classes] for support in supports]
        for support, values in zip(supports, got):
            assert 0 not in support.weights
            left = dict(zip(support.classes, support.weights))
            dense = [left.pop(a, 0) for a in classes]
            assert not left  # every class is a sorted cycle type
            rows = [strip_row(lam, degree) for lam in classes]
            assert values == [sum(map(mul, dense, row)) for row in rows]


def test_coefficients_build_no_rows_at_the_target_degree():
    clear_memo()
    pleth_coefficient((4, 2), (2,), (3,))
    for lam in enumerate_partitions(8):
        pleth_coefficient(lam, (2, 1, 1), (2,))
    pleth_hn_expansion(4, 3)
    assert not [m for _, m in characters._rows if m in (6, 8, 12)]


def test_matches_tableau_composition():
    # the full expansion, one pleth_coefficient per target, for every
    # (inner, outer) of degree at most 8
    for total_inner in range(1, 9):
        for total_outer in range(1, 8 // total_inner + 1):
            degree = total_inner * total_outer
            for inner in enumerate_partitions(total_inner):
                for outer in enumerate_partitions(total_outer):
                    fast = {}
                    for lam in enumerate_partitions(degree):
                        a = pleth_coefficient(lam, inner, outer)
                        if a:
                            fast[lam] = a
                    assert fast == brute_expansion(inner, outer), (inner, outer)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coefficient_agrees_with_expansion(data):
    inner = data.draw(
        st.sampled_from([p for k in (1, 2, 3) for p in enumerate_partitions(k)])
    )
    outer = data.draw(
        st.sampled_from([p for k in (1, 2) for p in enumerate_partitions(k)])
    )
    target = data.draw(
        st.sampled_from(list(enumerate_partitions(sum(inner) * sum(outer))))
    )
    want = brute_expansion(inner, outer).get(target, 0)
    assert pleth_coefficient(target, inner, outer) == want


# -- the h_d[h_n] family --


def test_hn_first_row_only():
    for n in range(1, 9):
        assert pleth_hn_expansion(1, n).coeffs == {(n,): 1}


def test_hn_two_two():
    assert pleth_hn_expansion(2, 2).coeffs == {(4,): 1, (2, 2): 1}


def test_hn_guards():
    with pytest.raises(ValueError):
        pleth_hn_expansion(0, 4)
    with pytest.raises(ValueError):
        pleth_hn_expansion(4, 0)
    with pytest.raises(ValueError):
        pleth_hn_expansion(5, 4)  # 20 cells > default cap
    assert pleth_hn_expansion(2, 2, cap=4).coeffs[(4,)] == 1


def test_hn_support_and_sign():
    for d in range(1, 13):
        for n in range(1, 13):
            if d * n > 12:
                continue
            for lam, c in pleth_hn_expansion(d, n).coeffs.items():
                assert c > 0
                assert len(lam) <= d


def test_hn_dimension_identity():
    for d in range(1, 13):
        for n in range(1, 13):
            if d * n > 12:
                continue
            vec = pleth_hn_expansion(d, n)
            total = sum(c * gl_dimension(lam, d) for lam, c in vec.coeffs.items())
            assert total == sym_power_dimension(d, n)


def test_hn_two_row_coefficients():
    from artifact.kronecker import kron_tworow

    for d in range(1, 11):
        for n in range(1, 11):
            if d * n > 10:
                continue
            vec = pleth_hn_expansion(d, n).coeffs
            for k in range(n * d // 2 + 1):
                lam = (n * d - k, k) if k else (n * d,)
                got = vec.get(lam, 0) if len(lam) <= d else 0
                assert got == kron_tworow(n, d, k)


def test_hn_matches_general_coefficient():
    for d in range(1, 17):
        for n in range(1, 17):
            if d * n > 16:
                continue
            vec = pleth_hn_expansion(d, n).coeffs
            for lam in enumerate_partitions(d * n):
                assert pleth_coefficient(lam, (n,), (d,)) == vec.get(lam, 0)
            # h_d[h_n] is the character of S_dn acting on set partitions into
            # d blocks of n; its dimension sum shows no constituent longer
            # than d rows is missing
            dims = sum(a * dimension_hlf(lam) for lam, a in vec.items())
            assert dims == factorial(d * n) // (factorial(d) * factorial(n) ** d)


@pytest.mark.parametrize(
    "corrupted",
    [
        (2, 3, 3, 1),  # total 1, not a multiple of 2! * (2!)^2 = 8
        (10, 3, 2, 1),  # total -8, a multiple of 8 but negative
    ],
)
def test_corrupted_kernel_row_is_a_hard_failure(monkeypatch, capsys, corrupted):
    # h_2[h_2] = (2 p_4 + 3 p_22 + 2 p_211 + p_1111) / 8, and chi^(3,1) is
    # (-1, -1, 1, 3) on those classes; the contraction reads the weights
    # from the class vector's ClassSum, so corrupt them there
    true, scale = plethysm._class_vector((2,), (2,))
    assert true.classes == ((4,), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert [character((3, 1), a) for a in true.classes] == [-1, -1, 1, 3]
    vector = ClassSum(dict(zip(true.classes, corrupted))), scale
    monkeypatch.setattr(plethysm, "_class_vector", lambda outer, inner: vector)
    clear_memo()
    with pytest.raises(ArithmeticError):
        pleth_coefficient((3, 1), (2,), (2,))
    with pytest.raises(ArithmeticError):
        pleth_hn_expansion(2, 2)
    assert main(["pleth", "3,1", "2", "2"]) == 3
    assert "internal consistency failure" in capsys.readouterr().err


def test_degree_zero_coefficients_are_one():
    # s_nu[s_mu] with |nu| = 0 or |mu| = 0 is the constant 1 = s_(), and
    # the only class of S_0 is the empty cycle type
    assert pleth_coefficient((), (), (2,)) == 1
    assert pleth_coefficient((), (2,), ()) == 1
    assert pleth_coefficient((), (), ()) == 1


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (5, 2), (4, 3)])
def test_foulkes_instances(d, n):
    assert foulkes_violations(d, n) == []


@pytest.mark.parametrize("d,n,cap", [(6, 4, 24), (7, 4, 28), (6, 5, 30)])
def test_foulkes_instances_past_the_degree_cap(d, n, cap):
    # h_d[h_n] >= h_n[h_d] holds for every d >= n when n = 4 (McKay) and
    # n = 5 (Cheung-Ikenmeyer-Mkrtchyan); the cap is raised explicitly
    assert foulkes_violations(d, n, cap=cap) == []


def test_foulkes_violations_lists_every_failure_in_order(monkeypatch):
    # doctored h_3[h_2] (big) and h_2[h_3] (small), each stored in
    # enumerate_partitions(6) order as _hn_coeffs stores them; the first
    # constituent of small is itself a failure
    big = {(6,): 1, (5, 1): 1, (4, 2): 3, (2, 2, 2): 1}
    small = {(6,): 2, (5, 1): 2, (4, 2): 1, (3, 3): 1, (2, 2, 1, 1): 1}
    table = {
        key: {lam: coeffs[lam] for lam in enumerate_partitions(6) if lam in coeffs}
        for key, coeffs in (((3, 2), big), ((2, 3), small))
    }
    monkeypatch.setattr(
        plethysm,
        "pleth_hn_expansion",
        lambda d, n, cap=None: SchurVector(table[(d, n)]),
    )
    want = [((6,), 1, 2), ((5, 1), 1, 2), ((3, 3), 0, 1), ((2, 2, 1, 1), 0, 1)]
    assert foulkes_violations(3, 2) == want
    assert want == [
        (lam, big.get(lam, 0), small.get(lam, 0))
        for lam in enumerate_partitions(6)
        if big.get(lam, 0) < small.get(lam, 0)
    ]


def test_foulkes_argument_order():
    with pytest.raises(ValueError):
        foulkes_violations(2, 3)


# -- helpers --


def test_gl_dimension_values():
    assert gl_dimension((1,), 5) == 5
    assert gl_dimension((2,), 2) == 3
    assert gl_dimension((1, 1), 2) == 1
    assert gl_dimension((2, 1), 3) == 8  # the adjoint representation of SL_3
    assert gl_dimension((3, 1, 1), 2) == 0


def test_gl_dimension_counts_fillings():
    for n in range(6):
        for lam in enumerate_partitions(n):
            for nvars in range(1, 5):
                direct = schur_in_monomials(lam, nvars).evaluate((1,) * nvars)
                assert gl_dimension(lam, nvars) == direct


def test_sym_power_dimension_small():
    assert sym_power_dimension(2, 2) == 6
    assert sym_power_dimension(3, 2) == 56  # Sym^3 of the 6-dim Sym^2(C^3)
    assert sym_power_dimension(1, 7) == 1  # everything is 1-dim in one variable
    assert sym_power_dimension(7, 1) == 1716  # multisets of 7 from 7 letters

