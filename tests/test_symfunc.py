from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact
from artifact.partitions import enumerate_partitions
from artifact.plethysm import pleth_hn_expansion
from artifact.symfunc import (
    SchurVector,
    SymPoly,
    complete_homogeneous,
    compose_schur,
    multiply,
    plethysm_compose,
    schur_in_monomials,
    to_schur_basis,
)
from artifact.tableaux import lr_coefficient
from test_tableaux import dfs_kostka


def sign(perm):
    s = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        s *= (-1) ** (length - 1)
    return s


@lru_cache(maxsize=None)
def h_product(degrees, nvars):
    """Product of h_d over a sorted degree tuple, with shared prefixes."""
    if not degrees:
        return SymPoly.one(nvars)
    return multiply(
        h_product(degrees[:-1], nvars),
        complete_homogeneous(degrees[-1], nvars),
    )


def jacobi_trudi(lam, nvars):
    """Oracle: det[h_{lam_i - i + j}] by Leibniz expansion over SymPoly."""
    ell = len(lam)
    total = SymPoly.zero(nvars)
    for perm in permutations(range(ell)):
        degrees = [lam[i] - i + perm[i] for i in range(ell)]
        if any(d < 0 for d in degrees):
            continue
        term = h_product(tuple(sorted(degrees)), nvars)
        total = total + term * sign(perm)
    return total


def det(mat):
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        term = sign(perm)
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def weyl_quotient(lam, point):
    """Oracle: bialternant det(x_i^{lam_j+n-j}) / det(x_i^{n-j}), exact."""
    n = len(point)
    padded = tuple(lam) + (0,) * (n - len(lam))
    num = det([[x ** (padded[j] + n - 1 - j) for j in range(n)] for x in point])
    den = det([[x ** (n - 1 - j) for j in range(n)] for x in point])
    q, r = divmod(num, den)
    assert r == 0
    return q


# -- construction and arithmetic -----------------------------------------------


def test_schur_small_expansions():
    assert schur_in_monomials((2, 1), 2).terms == {(2, 1): 1}
    assert schur_in_monomials((1, 1, 1), 3).terms == {(1, 1, 1): 1}
    assert schur_in_monomials((2, 1), 1).terms == {}
    assert schur_in_monomials((), 3).terms == {(): 1}


def test_schur_coefficients_are_kostka():
    for n in range(8):
        for lam in enumerate_partitions(n):
            poly = schur_in_monomials(lam, max(n, 1))
            for mu in enumerate_partitions(n):
                assert poly.terms.get(mu, 0) == dfs_kostka(lam, mu)


def test_sympoly_rejects_bad_keys():
    with pytest.raises(ValueError):
        SymPoly(3, {(1, 2): 1})
    with pytest.raises(ValueError):
        SymPoly(2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        SymPoly(0, {})


def test_sympoly_drops_zeros_and_trims():
    p = SymPoly(3, {(2, 1, 0): 5, (1, 1): 0})
    assert p.terms == {(2, 1): 5}


def test_multiply_identity_and_commutativity():
    for lam in ((2, 1), (3,), (1, 1)):
        f = schur_in_monomials(lam, 4)
        assert multiply(f, SymPoly.one(4)) == f
    f = schur_in_monomials((2,), 4)
    g = schur_in_monomials((1, 1), 4)
    assert multiply(f, g) == multiply(g, f)


def test_multiply_nvars_mismatch():
    with pytest.raises(ValueError):
        multiply(SymPoly.one(2), SymPoly.one(3))


def test_operator_ring_identities():
    f = schur_in_monomials((2,), 3)
    g = schur_in_monomials((1, 1), 3)
    assert f - f == SymPoly.zero(3)
    assert f + (-f) == SymPoly.zero(3)
    assert 2 * f == f + f
    assert (f + g) * g == f * g + g * g


# -- Schur basis conversion ------------------------------------------------------


def test_to_schur_roundtrip():
    for n in range(8):
        for lam in enumerate_partitions(n):
            vec = to_schur_basis(schur_in_monomials(lam, max(n, 1)))
            assert vec.coeffs == {lam: 1}


def test_to_schur_h2():
    assert to_schur_basis(complete_homogeneous(2, 3)).coeffs == {(2,): 1}


def test_to_schur_s1_squared():
    s1 = schur_in_monomials((1,), 3)
    assert to_schur_basis(multiply(s1, s1)).coeffs == {(2,): 1, (1, 1): 1}


def test_to_schur_rejects_inhomogeneous():
    f = SymPoly(3, {(2,): 1, (1,): 1})
    with pytest.raises(ValueError):
        to_schur_basis(f)


def test_schur_products_give_lr_coefficients():
    for total in range(1, 8):
        for k in range(total + 1):
            for mu in enumerate_partitions(k):
                f = schur_in_monomials(mu, total)
                for nu in enumerate_partitions(total - k):
                    vec = to_schur_basis(
                        multiply(f, schur_in_monomials(nu, total))
                    )
                    for lam in enumerate_partitions(total):
                        assert vec.coeffs.get(lam, 0) == lr_coefficient(
                            lam, mu, nu
                        )


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(enumerate_partitions(5))),
            st.integers(min_value=-4, max_value=4),
        ),
        max_size=4,
    )
)
@settings(max_examples=25, deadline=None)
def test_to_schur_inverts_arbitrary_combinations(combo):
    f = SymPoly.zero(5)
    want = {}
    for lam, c in combo:
        f = f + schur_in_monomials(lam, 5) * c
        want[lam] = want.get(lam, 0) + c
    want = {k: v for k, v in want.items() if v}
    assert to_schur_basis(f).coeffs == want


# -- classical identities ----------------------------------------------------------


def test_jacobi_trudi_agrees():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            assert jacobi_trudi(lam, n) == schur_in_monomials(lam, n)


def test_weyl_quotient_agrees():
    for point in ((3, 2, 1), (5, 2, 1)):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                if len(lam) > 3:
                    continue
                poly = schur_in_monomials(lam, 3)
                assert poly.evaluate(point) == weyl_quotient(lam, point)


def test_truncated_cauchy_identity():
    # sum_{lam |- k} s_lam(x) s_lam(y) vs the degree-(k,k) slice of
    # prod 1/(1 - x_i y_j), in two x- and two y-variables
    for k in range(1, 6):
        lhs = {}
        for lam in enumerate_partitions(k):
            if len(lam) > 2:
                continue
            fx = schur_in_monomials(lam, 2)._full()
            for xv, xa in fx.items():
                for yv, ya in fx.items():
                    key = xv + yv
                    lhs[key] = lhs.get(key, 0) + xa * ya
        rhs = {}
        for t in product(range(k + 1), repeat=4):
            # t = (t11, t12, t21, t22); exponent of x_i y_j
            if t[0] + t[1] + t[2] + t[3] != k:
                continue
            key = (t[0] + t[1], t[2] + t[3], t[0] + t[2], t[1] + t[3])
            rhs[key] = rhs.get(key, 0) + 1
        assert lhs == rhs


# -- plethystic composition ----------------------------------------------------------


def test_plethysm_worked_example():
    vec = to_schur_basis(plethysm_compose((2,), (1, 1), 4))
    assert vec.coeffs == {(2, 2): 1, (1, 1, 1, 1): 1}


def test_plethysm_identity_outer():
    for mu in ((2, 1), (3,), (1, 1, 1)):
        assert plethysm_compose((1,), mu, 4) == schur_in_monomials(mu, 4)


def test_plethysm_h2_of_h2():
    vec = to_schur_basis(compose_schur((2,), complete_homogeneous(2, 2)))
    assert vec.coeffs == {(4,): 1, (2, 2): 1}


def test_plethysm_rejects_negative_inner():
    bad = SymPoly(2, {(1,): -1})
    with pytest.raises(ValueError):
        compose_schur((2,), bad)


def test_plethysm_truncation_soundness():
    cases = [
        ((2,), (2,)),
        ((2,), (1, 1)),
        ((1, 1), (2, 1)),
        ((3,), (2,)),
        ((2, 1), (2,)),
        ((2, 2), (2,)),
        ((4,), (2,)),
        ((2,), (2, 2)),
        ((1, 1), (1, 1, 1)),
    ]
    for outer, inner in cases:
        assert sum(outer) * sum(inner) <= 8
        bound = sum(outer) * len(inner)
        base = to_schur_basis(plethysm_compose(outer, inner, bound)).coeffs
        more = to_schur_basis(
            plethysm_compose(outer, inner, bound + 2)
        ).coeffs
        assert base == more


def test_evaluate_counts_tableaux():
    # at the all-ones point a Schur polynomial counts its SSYT
    for lam in ((2, 1), (3, 1), (2, 2)):
        poly = schur_in_monomials(lam, 3)
        count = sum(
            dfs_kostka(lam, mu) * orbit_size(mu, 3)
            for mu in enumerate_partitions(sum(lam))
            if len(mu) <= 3
        )
        assert poly.evaluate((1, 1, 1)) == count


def orbit_size(mu, nvars):
    from itertools import permutations as perms

    padded = tuple(mu) + (0,) * (nvars - len(mu))
    return len(set(perms(padded)))


def test_package_exports_reach_symfunc_on_demand():
    assert isinstance(pleth_hn_expansion(2, 2), SchurVector)
    with pytest.raises(AttributeError):
        artifact.no_such_name
