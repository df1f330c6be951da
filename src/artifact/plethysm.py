"""Plethysm coefficients through the power sums and the character kernel.

The coefficient a^lam_{nu,mu} is the multiplicity of s_lam in the
composition s_nu[s_mu].  With m = |mu| and d = |nu| (Macdonald, Symmetric
Functions and Hall Polynomials, I.8):

    s_mu       = (1/m!) sum_sig |C_sig| chi^mu(sig) p_sig
    p_k[s_mu]  = (1/m!) sum_sig |C_sig| chi^mu(sig) p_{k sig}
    s_nu[s_mu] = (1/d!) sum_rho |C_rho| chi^nu(rho) prod_i p_{rho_i}[s_mu]

where k sig scales every part of sig by k, and <s_lam, p_tau> = chi^lam(tau)
reads off a constituent.  Scaling by d! (m!)^d keeps everything in integers:
the rho term carries the factor (m!)^(d - len(rho)).  One integer vector per
(outer, inner), indexed like char_kernel(d*m).classes, holds the scaled
expansion, so a coefficient is one dot product with a kernel row followed by
an exact division.  A remainder or a negative quotient means corrupted
arithmetic and raises ArithmeticError.  symfunc.compose_schur fills composite
tableaux directly and serves as the brute-force cross-check.
"""

from functools import cache
from math import comb, factorial
from operator import mul

from .characters import char_kernel
from .partitions import (
    SizeMismatchError,
    check_partition,
    enumerate_partitions,
    hook_lengths,
)
from .symfunc import SchurVector

DEGREE_CAP = 16


@cache
def _class_vector(outer, inner):
    """d! (m!)^d s_outer[s_inner] on the power sums, and that scale.

    The vector is indexed like char_kernel(d*m).classes.
    """
    d, m = sum(outer), sum(inner)
    kern = char_kernel(m)
    weights = [
        (sig, c)
        for sig, c in zip(kern.classes, map(mul, kern.sizes, kern.row(inner)))
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
    kern = char_kernel(d)
    for rho, size, chi in zip(kern.classes, kern.sizes, kern.row(outer)):
        if chi:
            w = size * chi * mfact ** (d - len(rho))
            for tau, c in product(rho).items():
                total[tau] = total.get(tau, 0) + w * c
    vec = tuple(total.get(tau, 0) for tau in char_kernel(d * m).classes)
    return vec, factorial(d) * mfact**d


def _coefficient(target, inner, outer):
    vec, scale = _class_vector(outer, inner)
    q, r = divmod(sum(map(mul, vec, char_kernel(sum(target)).row(target))), scale)
    if r or q < 0:
        raise ArithmeticError(
            f"plethysm coefficient of {target} in s_{outer}[s_{inner}] is "
            f"{q} remainder {r} after the division by {scale}"
        )
    return q


def pleth_coefficient(target, inner, outer, cap=DEGREE_CAP):
    """Multiplicity of s_target in s_outer[s_inner].

    Contracts the cached power-sum vector of s_outer[s_inner] with the one
    kernel row chi^target and divides by d! (m!)^d exactly.  s_outer[s_inner]
    is a summand of s_inner^|outer|, so no constituent has more than
    |outer| * len(inner) rows, and a longer target is 0 without any work.
    Degrees above ``cap`` cells are refused rather than attempted.
    """
    target = check_partition(target)
    inner = check_partition(inner)
    outer = check_partition(outer)
    degree = sum(inner) * sum(outer)
    if sum(target) != degree:
        raise SizeMismatchError(
            f"target has {sum(target)} cells, expected {degree}"
        )
    if degree > cap:
        raise ValueError(f"degree {degree} exceeds the cap of {cap} cells")
    if len(target) > sum(outer) * len(inner):
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
    if d < 1 or n < 1:
        raise ValueError("both indices must be at least 1")
    if d * n > cap:
        raise ValueError(f"degree {d * n} exceeds the cap of {cap} cells")
    return SchurVector("schur", dict(_hn_coeffs(d, n)))


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
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("hook-content quotient came out inexact")
    return q


def foulkes_violations(d, n, cap=DEGREE_CAP):
    """Coefficientwise failures of h_d[h_n] >= h_n[h_d], for d >= n.

    Returns a list of (lam, coeff_in_h_d_of_h_n, coeff_in_h_n_of_h_d) for
    every lam where the first is strictly smaller.  Empty means the
    inequality held at this size.
    """
    if d < n:
        raise ValueError("expected d >= n; swap the arguments")
    big = pleth_hn_expansion(d, n, cap=cap).coeffs
    small = pleth_hn_expansion(n, d, cap=cap).coeffs
    bad = []
    for lam in enumerate_partitions(d * n):
        a, b = big.get(lam, 0), small.get(lam, 0)
        if a < b:
            bad.append((lam, a, b))
    return bad
