"""Plethysm coefficients through the power sums and the character rows.

The coefficient a^lam_{nu,mu} is the multiplicity of s_lam in the
composition s_nu[s_mu].  With m = |mu| and d = |nu| (Macdonald, Symmetric
Functions and Hall Polynomials, I.8):

    s_mu       = (1/m!) sum_sig |C_sig| chi^mu(sig) p_sig
    p_k[s_mu]  = (1/m!) sum_sig |C_sig| chi^mu(sig) p_{k sig}
    s_nu[s_mu] = (1/d!) sum_rho |C_rho| chi^nu(rho) prod_i p_{rho_i}[s_mu]

where k sig scales every part of sig by k, and <s_lam, p_tau> = chi^lam(tau)
reads off a constituent.  Scaling by d! (m!)^d keeps everything in integers:
the rho term carries the factor (m!)^(d - len(rho)).  The scaled expansion of
each (outer, inner) is kept as a characters.ClassSum over its support, the
classes of S_dm it reaches with their nonzero weights (81 of 176 classes for
h_5[h_3]), so a coefficient is one ClassSum.contract, an MN recursion over
the prefix trie of those classes, followed by an exact division; no dense
character row is built.  A remainder or a negative quotient means corrupted
arithmetic and raises InternalConsistencyError.
symfunc.compose_schur fills composite tableaux directly and serves as the
brute-force cross-check.
"""

from functools import cache
from math import factorial
from operator import mul

from .characters import ClassSum, conjugacy_classes, exact_quotient, strip_row
from .partitions import (
    SizeMismatchError,
    _require_int,
    check_partition,
    enumerate_partitions,
)

DEGREE_CAP = 16


class SchurVector:
    """Coefficients of a symmetric function in the Schur basis, {lam: coeff}."""

    def __init__(self, coeffs):
        self.coeffs = coeffs


@cache
def _class_vector(outer, inner):
    """d! (m!)^d s_outer[s_inner] on the power sums, and that scale.

    Returns (support, scale): support is the ClassSum over the cycle types
    tau of S_dm (parts decreasing) whose power sum p_tau has a nonzero
    coefficient, weighted by those coefficients.
    """
    d, m = sum(outer), sum(inner)
    classes, sizes = conjugacy_classes(m)
    weights = [
        (sig, c)
        for sig, c in zip(classes, map(mul, sizes, strip_row(inner, m)))
        if c
    ]
    # m! p_k[s_inner] = sum_sig |C_sig| chi^inner(sig) p_{k sig}
    powers = {
        k: {tuple(k * part for part in sig): c for sig, c in weights}
        for k in range(1, d + 1)
    }
    products = {(): {(): 1}}

    def product(rho):
        # (m!)^len(rho) prod_i p_{rho_i}[s_inner], built on the prefix of rho
        got = products.get(rho)
        if got is None:
            got = products[rho] = {}
            for tau, a in product(rho[:-1]).items():
                for sig, b in powers[rho[-1]].items():
                    key = tuple(sorted(tau + sig, reverse=True))
                    got[key] = got.get(key, 0) + a * b
        return got

    mfact = factorial(m)
    total = {}
    classes, sizes = conjugacy_classes(d)
    for rho, size, chi in zip(classes, sizes, strip_row(outer, d)):
        if chi:
            w = size * chi * mfact ** (d - len(rho))
            for tau, c in product(rho).items():
                total[tau] = total.get(tau, 0) + w * c
    return ClassSum(total), factorial(d) * mfact**d


def _coefficient(target, inner, outer):
    support, scale = _class_vector(outer, inner)
    total = support.contract(target)
    return exact_quotient(
        total, scale, "coefficient of %r in s_%r[s_%r]", target, outer, inner
    )


def pleth_coefficient(target, inner, outer, cap=DEGREE_CAP):
    """Multiplicity of s_target in s_outer[s_inner].

    Contracts chi^target with the cached power-sum support of
    s_outer[s_inner] and divides by d! (m!)^d exactly.  Two bounds give 0
    without any work.  With d = |outer|, s_outer[s_inner] is a
    Schur-positive summand of s_inner^d = p_1^d[s_inner] (p_1^d is a
    positive sum of Schur functions), so every constituent of it is one of
    s_inner^d.  A product of d Schur functions of at most len(inner) rows
    has no constituent longer than d * len(inner), so a longer target is 0.
    omega is a ring map with omega(s_mu) = s_mu', so omega(s_inner^d) =
    s_inner'^d, whose constituents have at most d * inner[0] rows; their
    conjugates, the constituents of s_inner^d, have first row at most
    d * inner[0], so a wider target is 0 too.
    Degrees above ``cap`` cells are refused rather than attempted.
    """
    target = check_partition(target)
    inner = check_partition(inner)
    outer = check_partition(outer)
    _require_int("cap", cap)
    degree = sum(inner) * sum(outer)
    if sum(target) != degree:
        raise SizeMismatchError(
            f"target has {sum(target)} cells, expected {degree}"
        )
    if degree > cap:
        raise ValueError(f"degree {degree} exceeds the cap of {cap} cells")
    if len(target) > sum(outer) * len(inner):
        return 0
    if target and target[0] > sum(outer) * inner[0]:
        return 0
    return _coefficient(target, inner, outer)


@cache
def _hn_coeffs(d, n):
    # the returned dict is cached and must not be mutated
    coeffs = {}
    for lam in enumerate_partitions(d * n, max_len=d):
        a = _coefficient(lam, (n,), (d,))
        if a:
            coeffs[lam] = a
    return coeffs


def pleth_hn_expansion(d, n, cap=DEGREE_CAP):
    """Full Schur expansion of h_d[h_n], cached per (d, n).

    Only lam |- dn with len(lam) <= d are contracted.  h_d[h_n] is a summand
    of h_n^d = sum_lam K_{lam,(n^d)} s_lam, and K_{lam,(n^d)} is nonzero only
    when lam dominates (n^d), which forces len(lam) <= d; nothing is lost.
    """
    for key, value in (("d", d), ("n", n), ("cap", cap)):
        _require_int(key, value)
    if d < 1 or n < 1:
        raise ValueError("both indices must be at least 1")
    if d * n > cap:
        raise ValueError(f"degree {d * n} exceeds the cap of {cap} cells")
    return SchurVector(dict(_hn_coeffs(d, n)))


def foulkes_violations(d, n, cap=DEGREE_CAP):
    """Coefficientwise failures of h_d[h_n] >= h_n[h_d], for d >= n.

    Returns a list of (lam, coeff_in_h_d_of_h_n, coeff_in_h_n_of_h_d) for
    every lam where the first is strictly smaller.  Empty means the
    inequality held at this size.
    """
    _require_int("d", d)
    _require_int("n", n)
    if d < n:
        raise ValueError("expected d >= n; swap the arguments")
    big = pleth_hn_expansion(d, n, cap=cap).coeffs
    small = pleth_hn_expansion(n, d, cap=cap).coeffs
    bad = []
    # a failure needs b > 0, so only the constituents of h_n[h_d] are
    # walked; _hn_coeffs stores them in enumerate_partitions(dn) order
    for lam, b in small.items():
        a = big.get(lam, 0)
        if a < b:
            bad.append((lam, a, b))
    return bad
