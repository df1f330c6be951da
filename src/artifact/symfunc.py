"""Truncated symmetric-polynomial arithmetic with exact integer coefficients.

A SymPoly is stored by monomial orbits: each key is a weakly decreasing
exponent vector with trailing zeros trimmed, and its coefficient applies to
every distinct permutation of the key over the fixed variable set.  A Schur
polynomial's orbit coefficients are Kostka numbers, read from the strip
chains of the tableaux module; plethysm substitutes monomials directly into
a Schur polynomial and to_schur_basis inverts the unitriangular Kostka
matrix, so compose_schur and plethysm_compose serve as the brute-force
oracle for the character route of plethysm.
"""

from .partitions import check_partition, enumerate_partitions
from .tableaux import _strip_chains


def _distinct_permutations(pool):
    """Yield the distinct orderings of a sorted tuple."""
    if not pool:
        yield ()
        return
    prev = None
    for i, x in enumerate(pool):
        if x == prev:
            continue
        prev = x
        for rest in _distinct_permutations(pool[:i] + pool[i + 1 :]):
            yield (x,) + rest


def _orbit(key, nvars):
    """All distinct exponent vectors obtained by permuting a padded key."""
    return _distinct_permutations(key + (0,) * (nvars - len(key)))


def _trim(vec):
    k = len(vec)
    while k and vec[k - 1] == 0:
        k -= 1
    return vec[:k]


class SymPoly:
    """A symmetric polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self.terms = {}
        for key, coeff in (terms or {}).items():
            key = _trim(tuple(key))
            if any(
                key[i] < key[i + 1] for i in range(len(key) - 1)
            ) or any(e < 0 for e in key):
                raise ValueError("key %r is not weakly decreasing" % (key,))
            if len(key) > nvars:
                raise ValueError(
                    "key %r uses more than %d variables" % (key, nvars)
                )
            if coeff:
                self.terms[key] = self.terms.get(key, 0) + coeff
                if not self.terms[key]:
                    del self.terms[key]

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SymPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        body = ", ".join(
            "%r: %d" % (k, v) for k, v in sorted(self.terms.items())
        )
        return "SymPoly(%d, {%s})" % (self.nvars, body)

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return SymPoly(self.nvars, out)

    def __sub__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return SymPoly(self.nvars, out)

    def __neg__(self):
        return SymPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return SymPoly(
                self.nvars, {k: v * other for k, v in self.terms.items()}
            )
        return multiply(self, other)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, SymPoly) or other.nvars != self.nvars:
            raise ValueError("operands must share the variable count")

    def _full(self):
        """Expand every orbit; maps full-length exponent vectors to coeffs."""
        out = {}
        for key, coeff in self.terms.items():
            for vec in _orbit(key, self.nvars):
                out[vec] = coeff
        return out

    def degrees(self):
        return {sum(k) for k in self.terms}

    def evaluate(self, point):
        """Exact value at an integer point of length nvars."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        total = 0
        for key, coeff in self.terms.items():
            orbit_sum = 0
            for vec in _orbit(key, self.nvars):
                term = 1
                for x, e in zip(point, vec):
                    term *= x**e
                orbit_sum += term
            total += coeff * orbit_sum
        return total


def multiply(f, g):
    """Exact product; orbit coefficients read off the sorted representative.

    Both factors are expanded to full monomial lists; a pair contributes
    only when its exponent sum is already weakly decreasing, which is
    exactly the coefficient of that orbit in the symmetric product.
    """
    f._check_compatible(g)
    fa, ga = f._full(), g._full()
    out = {}
    for v, a in fa.items():
        for w, b in ga.items():
            u = tuple(x + y for x, y in zip(v, w))
            if all(u[i] >= u[i + 1] for i in range(len(u) - 1)):
                key = _trim(u)
                out[key] = out.get(key, 0) + a * b
    return SymPoly(f.nvars, out)


def schur_in_monomials(lam, nvars):
    """Monomial expansion of s_lam in nvars variables.

    The coefficient of an orbit mu is the Kostka number K_{lam,mu}, read
    from the strip-chain memo directly: lam is validated here once and every
    orbit mu is a partition of |lam|.
    """
    lam = check_partition(lam)
    if nvars < 1:
        raise ValueError("need at least one variable")
    return SymPoly(
        nvars,
        {
            mu: _strip_chains(lam, mu)
            for mu in enumerate_partitions(sum(lam), max_len=nvars)
        },
    )


def complete_homogeneous(k, nvars):
    """h_k in nvars variables: every degree-k orbit with coefficient 1."""
    if k < 0:
        raise ValueError("negative degree")
    return SymPoly(
        nvars,
        {
            mu: 1
            for mu in enumerate_partitions(k)
            if len(mu) <= nvars
        },
    )


class SchurVector:
    """Coefficients of a symmetric function on a named basis."""

    def __init__(self, basis, coeffs):
        self.basis = basis
        self.coeffs = coeffs


def to_schur_basis(f):
    """Schur expansion of a homogeneous SymPoly by leading-term subtraction.

    Repeatedly picks the dominance-maximal surviving key (ties broken
    reverse-lexicographically; the plain tuple maximum is such a key, since
    anything dominating it would also be lexicographically larger), emits
    its coefficient and subtracts that multiple of the expanded Schur
    polynomial.  Exact inversion of the unitriangular Kostka matrix.
    """
    if len(f.degrees()) > 1:
        raise ValueError("input is not homogeneous: degrees %r" % f.degrees())
    work = dict(f.terms)
    coeffs = {}
    while work:
        kappa = max(work)
        c = work.pop(kappa)
        coeffs[kappa] = c
        for mu, k in schur_in_monomials(kappa, f.nvars).terms.items():
            if mu == kappa:
                continue
            v = work.get(mu, 0) - c * k
            if v:
                work[mu] = v
            else:
                work.pop(mu, None)
    return SchurVector("schur", coeffs)


def plethysm_compose(outer, inner, nvars):
    """s_outer[s_inner] as a SymPoly, by direct monomial substitution.

    Exact (no constituent truncated) once nvars >= |outer| * len(inner);
    with fewer variables the result is the same polynomial restricted to
    that variable set.
    """
    check_partition(outer)
    check_partition(inner)
    return compose_schur(outer, schur_in_monomials(inner, nvars))


def compose_schur(outer, g):
    """s_outer evaluated over the monomials of g, multiplicities included.

    Every monomial of g becomes one letter of an ordered alphabet (a
    coefficient c contributes c identical letters); summing the exponent
    vectors over all column-strict tableaux of shape outer yields the
    orbit coefficients of the composition.
    """
    check_partition(outer)
    if any(c < 0 for c in g.terms.values()):
        raise ValueError("inner expansion has a negative coefficient")
    letters = []
    for key in sorted(g.terms):
        coeff = g.terms[key]
        for vec in _orbit(key, g.nvars):
            letters.extend([vec] * coeff)
    letters.sort()
    cells = [
        (i, j) for i, r in enumerate(outer) for j in range(r)
    ]
    n_letters = len(letters)
    out = {}
    entry = {}

    def fill(pos, acc):
        if pos == len(cells):
            if all(acc[i] >= acc[i + 1] for i in range(len(acc) - 1)):
                key = _trim(tuple(acc))
                out[key] = out.get(key, 0) + 1
            return
        i, j = cells[pos]
        lo = entry.get((i, j - 1), 0)
        up = entry.get((i - 1, j))
        if up is not None and up + 1 > lo:
            lo = up + 1
        for idx in range(lo, n_letters):
            entry[(i, j)] = idx
            vec = letters[idx]
            fill(pos + 1, [a + e for a, e in zip(acc, vec)])
        entry.pop((i, j), None)

    fill(0, [0] * g.nvars)
    return SymPoly(g.nvars, out)
