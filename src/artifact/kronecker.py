"""Kronecker coefficients, their two-row closed form, and reduced variants.

Two independent computation routes exist on purpose.  kron_char contracts
three character rows against the class sizes and divides by n! exactly;
kron_schur_oracle reads g off s_lam(x_i y_j) by Jacobi's bialternant, from
Kostka numbers over contingency tables.  They share no algorithmic
machinery, so their agreement on a corpus is a real check.

Every contraction (kron_char, kron_table, the engine's levels) reads its
class sizes from characters.conjugacy_classes and its int-tuple rows from
strip_row, which builds a row on first request: a query costs three rows.
kron_char and verify's tworow end in _contract_pair: a pair product
|C| chi^lam chi^mu dotted with a row, divided by n! exactly.
kron_table packs the rows it read into one int per class column (_pack, which
returns the dot), a field per nu wide enough for n! M^3 (M the largest
|entry|), so one dot of a pair (lam, mu) and one divmod by n! give, and
check, the value of every nu at once (_pair_dot); a vector that fails the
check is redone through _contract_pair, which raises.  Since chi^lam' =
sgn chi^lam, one dot serves the orbit (lam, mu), (lam', mu'), (lam', mu),
(lam, mu') of pairs (_pair_vectors), so each value is divided once, in its
representative's vector.  verify's murnaghan packs the products
chi^mu chi^nu of one size with the same _pack and bound, one dot per lam,
and falls back to _contract_pair in the same way; its orthogonality sweep
dots its vectors with _pack too, dividing by 1.

Reduced (stable) coefficients have one route, an exact inversion that
never pads.  The level L(U), the sum of gbar over the V with U/V a
horizontal strip, is a class sum at |U| coupling ordinary Kroneckers with
skew Littlewood-Richardson data of the two big arguments.  Summing over
horizontal strips is multiplication by H(1) = sum h_r, whose inverse is
E(-1) = sum (-1)^r e_r (Macdonald I.(2.6) and the two Pieri rules), so
gbar(A) = sum over V with A/V a vertical strip of (-1)^|A/V| L(V): one
level per such V, prod (multiplicity + 1) over the distinct parts of A.
The levels of one size share one class function, the coupling, built once
from strip closures, the characters of s_rho * h_r, which strip_row builds
by the same recursion, in the same store, as the rows chi^lam; each level
is one dot of it with chi^V.  A size whose coupling is a sum over no
subdiagram adds nothing, so its levels are never built.  The padded
definition (kron_char at a large padding size) is not called here; the
tests keep it as the independent oracle for this route.
"""

from functools import cache
from itertools import combinations, permutations, product, repeat
from itertools import combinations_with_replacement as multisets
from math import factorial
from operator import add, mul

from .characters import (
    TABLE_LIMIT,
    InternalConsistencyError,
    check_table_size,
    conjugacy_classes,
    exact_quotient,
    strip_row,
)
from .partitions import (
    SizeMismatchError,
    _require_int,
    check_partition,
    conjugate,
    contingency_tables,
    count_bounded,
    remove_horizontal_strips,
    subdiagrams,
)
from .tableaux import kostka, skew_schur_expansion


def kron_char(lam, mu, nu):
    """g(lam, mu, nu) by the character contraction, exact.

    One dot product of classSize * chi^lam * chi^mu with chi^nu, divided by
    n! once.  A nonzero remainder or a negative result is not a user error
    but a broken character table, hence the hard failure.
    """
    lam, mu, nu = map(check_partition, (lam, mu, nu))
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise SizeMismatchError(
            "Kronecker arguments must share a size, got %d, %d, %d"
            % (n, sum(mu), sum(nu))
        )
    _, sizes = conjugacy_classes(n)
    pair = map(mul, sizes, map(mul, strip_row(lam, n), strip_row(mu, n)))
    return _contract_pair(pair, strip_row(nu, n), lam, mu, nu)


def _contract_pair(pair, row, *trip):
    """g(*trip) from pair, |C| times the rows of two of trip, and the third's row."""
    total = sum(map(mul, pair, row))
    return exact_quotient(total, factorial(sum(trip[0])), "g(%r, %r, %r)", *trip)


@cache
def _table_sum(lam, rows, cols):
    """C_lam(rows, cols), the coefficient of x^rows y^cols in s_lam(x_i y_j):
    K(lam, entries of T) summed over the tables T with these margins."""
    return sum(
        kostka(lam, sorted((e for row in t for e in row if e), reverse=True))
        for t in contingency_tables(rows, cols)
    )


def _bialternant(p):
    """(sgn s, sorted p + delta - s delta) for the s in S_len(p) with no part < 0."""
    delta = range(len(p) - 1, -1, -1)
    for q in permutations(delta):
        r = sorted((x + d - y for x, d, y in zip(p, delta, q)), reverse=True)
        if not r or r[-1] >= 0:
            yield (-1) ** sum(y < z for y, z in combinations(q, 2)), tuple(r)


def kron_schur_oracle(lam, mu, nu):
    """g(lam, mu, nu) read off s_lam(x_i y_j) = sum g s_mu(x) s_nu(y).

    With a = len(mu), b = len(nu) and delta_k = (k-1, ..., 0), Jacobi's
    bialternant (Macdonald I.3) gives g = sum over sigma in S_a, tau in S_b
    of sgn sigma sgn tau C_lam(mu + delta_a - sigma delta_a, nu + delta_b -
    tau delta_b), and g = 0 when len(lam) > ab: an identity the tests hold
    against kron_char at every size up to 8 and against kron_tworow at
    sizes 100 and 200.  The arguments are first permuted, and two of them
    conjugated, to make ab smallest.  Refused when n > 9 and ab > 4.
    """
    trio = tuple(map(check_partition, (lam, mu, nu)))
    n, *sizes = map(sum, trio)
    if sizes != [n, n]:
        raise SizeMismatchError(
            "Kronecker arguments must share a size, got %d, %d, %d" % (n, *sizes)
        )
    # g(x, y, z) = g(y, z, x) = g(x', y', z) = g(x', y, z') = g(x, y', z')
    flip, moves = (trio, tuple(map(conjugate, trio))), product(range(3), (0, 1), (0, 1))
    lam, mu, nu = min(
        ((flip[j ^ k][i], flip[j][i - 2], flip[k][i - 1]) for i, j, k in moves),
        key=lambda t: len(t[1]) * len(t[2]),
    )
    ab = len(mu) * len(nu)
    if n > 9 and ab > 4:
        raise ValueError("Schur-Weyl oracle refuses n = %d with %d variables" % (n, ab))
    if len(lam) > ab:
        return 0
    cols = list(_bialternant(nu))
    return sum(
        s * t * _table_sum(lam, r, c) for s, r in _bialternant(mu) for t, c in cols
    )


def kron_tworow(n, d, k):
    """g((nd-k, k), n^d, n^d) via bounded-partition counts."""
    for key, value in zip("ndk", (n, d, k)):
        _require_int(key, value)
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1, got n=%d, d=%d" % (n, d))
    if k < 0 or 2 * k > n * d:
        raise ValueError("need 0 <= k <= nd/2, got k=%d" % k)
    return count_bounded(k, n, d) - count_bounded(k - 1, n, d)


# -- reduced (stable) coefficients ---------------------------------------------


def padding_threshold(alpha, beta, gamma):
    """Smallest padding size at which the stable value is certainly reached."""
    alpha, beta, gamma = map(check_partition, (alpha, beta, gamma))
    heads = sum(p[0] for p in (alpha, beta, gamma) if p)
    return sum(map(sum, (alpha, beta, gamma))) + heads + 1


def reduced_kron(alpha, beta, gamma):
    """Stable Kronecker coefficient gbar(alpha, beta, gamma).

    gbar is the value g(alpha[n], beta[n], gamma[n]) takes for all large n,
    where p[n] = (n - |p|, p) pads p with a first row.  It is computed by
    the vertical-strip inversion of _engine_value, which never pads, so the
    cost does not grow with the padding size; its exact division and
    nonnegativity checks are hard failures.
    """
    trio = map(check_partition, (alpha, beta, gamma))
    return _engine_value(*sorted(trio, key=lambda p: (sum(p), p)))


def _phi(big, delta, t):
    """Class vector over S_t of s_{big/delta} * h_r, r = t - |big/delta|.

    The sum over the constituents rho of big/delta of their coefficient
    times the strip closure strip_row(rho, t), added a whole row at a time:
    a lone constituent with coefficient 1 is the stored row itself.
    """
    out = ()
    for rho, c in skew_schur_expansion(big, delta).items():
        row = strip_row(rho, t) if c == 1 else [c * x for x in strip_row(rho, t)]
        out = tuple(map(add, out, row)) if out else row
    return out


@cache
def _engine_value(alpha, beta, gamma):
    """gbar by exact inversion over vertical strips of alpha, the smallest argument.

    The level L(U) of a shape U, the sum of gbar over its horizontal-strip
    predecessors, is an ordinary class sum at size |U| whose class function
    couples the two remaining arguments through their skew constituents.
    Inverting the strip sum with H(1)E(-1) = 1 (Macdonald I.(2.6)) gives
    gbar(A) = sum of (-1)^|A/V| L(V) over the V with A/V a vertical strip,
    so only those levels are computed.  The levels of size t = |A| - r share
    one coupling, the sum of phi(beta, delta, t) phi(gamma, delta, t) over
    the window of subdiagrams delta of the meet of beta and gamma with
    |delta| >= max(|beta|, |gamma|) - t, weighted by the class sizes: it is
    built once per r, and each level is one dot of it with strip_row(V, t).
    The window is empty once r > |A| - max(|beta|, |gamma|) + |meet|, so
    only the r up to that (and up to len(A)) are stripped, and only the
    delta of the widest window, at r = 0, are listed.  Every level divides
    exactly by t! and is a sum of reduced coefficients, and the result is
    one, so exact division and nonnegativity are checked, not assumed.
    """
    most, n = max(sum(beta), sum(gamma)), sum(alpha)
    meet = tuple(min(x, y) for x, y in zip(beta, gamma))
    deltas = subdiagrams(meet, most - n)
    value = 0
    for r in range(min(len(alpha), n - most + sum(meet)) + 1):
        t = n - r
        window = [d for d in deltas if sum(d) >= most - t]
        fbs = [_phi(beta, d, t) for d in window]
        fgs = fbs if beta == gamma else [_phi(gamma, d, t) for d in window]
        terms = zip(*(map(mul, fb, fg) for fb, fg in zip(fbs, fgs)))
        coupling = tuple(map(mul, conjugacy_classes(t)[1], map(sum, terms)))
        order = factorial(t)
        for v in _vertical_strips(alpha, r):
            total = sum(map(mul, coupling, strip_row(v, t)))
            value += (-1) ** r * exact_quotient(total, order, "level sum at %r", v)
    if value < 0:
        raise InternalConsistencyError(
            "negative reduced coefficient %d for %r,%r,%r"
            % (value, alpha, beta, gamma)
        )
    return value


@cache
def _vertical_strips(alpha, r):
    """The shapes V with alpha/V a vertical strip of r cells."""
    return tuple(map(conjugate, remove_horizontal_strips(conjugate(alpha), r)))


# -- batch export -----------------------------------------------------------------


def _pack(vectors, order, bound):
    """dot(x): the dots of x with every one of vectors, each divided by order.

    Kronecker substitution.  Coordinate t of every vector goes into one int,
    vectors[k][t] in the field of width bits at bit width * k, so one dot of
    x with those columns holds the dot t_k of x with every vector.  bound is
    the caller's bound on |t_k| / order, so with the bias order * bound
    added, field k holds t_k + order bound in [0, 2 order bound].  A field
    is low = bitlen(2 bound) bits plus bitlen(order) more, which hold that,
    so no field carries into its neighbour, whatever the signs.

    One divmod(total, order) = (q, r) checks every field at once; "high"
    bits are those at or above low within a field.  If every t_k is a
    multiple of order, q holds t_k / order + bound < 2^low in field k.
    Conversely, if r = 0 and q has no high bit, order times each field of q
    is below 2^width, so those products are the fields of total: every t_k
    divides, with quotient q's field less bound.  Subtracting bound from
    every field of q then leaves d with no high bit iff no quotient is
    negative: the lowest negative one borrows, setting high bits in its field,
    or in the top field makes d negative, and a negative int has every bit
    above its length set.  So dot returns every t_k / order when r = 0 and
    neither q nor d has a high bit, and None otherwise: then some t_k leaves
    a remainder or is negative, and the caller redoes the vector plainly.
    """
    low = (2 * bound).bit_length()
    width = order.bit_length() + low
    shifts = range(0, width * len(vectors), width)
    columns = [sum(x << s for s, x in zip(shifts, c)) for c in zip(*vectors)]
    ones = sum(1 << s for s in shifts)
    high = ones * ((1 << width) - (1 << low))
    mask = (1 << low) - 1
    bias = bound * ones
    biases = order * bias

    def dot(x):
        q, r = divmod(sum(map(mul, x, columns)) + biases, order)
        d = q - bias
        if r or (q | d) & high:
            return None
        return [d >> s & mask for s in shifts]

    return dot


def _pair_dot(n, rows=None):
    """dot(i, j): g(parts[i], parts[j], nu) over the nu in parts, from one dot.

    parts are conjugacy_classes(n)'s, and the rows chi^nu (strip_row's
    unless rows gives them, in class order) are packed by _pack, so one dot
    of |C| chi^lam chi^mu and one divmod by n! give every nu's value at
    once.  Whatever the rows hold, |total| <= n! M^3 with M the largest
    |entry|, so M^3 is the bound passed (M holds only for true characters).
    If any field fails to divide, or is negative, every nu of the pair goes
    through _contract_pair, which raises at the first failing one with
    kron_char's message.
    """
    parts, sizes = conjugacy_classes(n)
    if rows is None:
        rows = [strip_row(p, n) for p in parts]
    packed = _pack(rows, factorial(n), max(max(map(abs, row)) for row in rows) ** 3)
    weighted = [tuple(map(mul, sizes, row)) for row in rows]

    def dot(i, j):
        values = packed(map(mul, weighted[i], rows[j]))
        if values is None:
            pair = tuple(map(mul, weighted[i], rows[j]))
            values = [
                _contract_pair(pair, row, parts[i], parts[j], nu)
                for nu, row in zip(parts, rows)
            ]
        return values

    return dot


def _pair_vectors(n):
    """g[i][j] = g[j][i], the list of g(parts[i], parts[j], nu) over nu.

    Since chi^lam' = sgn chi^lam, (lam, mu) and (lam', mu') share a vector,
    and (lam', mu) and (lam, mu') have it read at nu' for nu.  The first
    pair i <= j of each such orbit takes one _pair_dot, so each value is
    divided once, in its representative's vector.
    """
    parts = conjugacy_classes(n)[0]
    dot = _pair_dot(n)
    index = {p: i for i, p in enumerate(parts)}
    bar = [index[conjugate(p)] for p in parts]
    g = [[None] * len(parts) for _ in parts]
    for i, j in multisets(range(len(parts)), 2):
        if g[i][j] is None:
            a, b = bar[i], bar[j]
            vector = dot(i, j)
            g[a][j] = g[j][a] = g[i][b] = g[b][i] = [vector[k] for k in bar]
            g[a][b] = g[b][a] = g[i][j] = g[j][i] = vector
    return g


def kron_table(n, limit=TABLE_LIMIT):
    """All g on canonical triples lam <= mu <= nu (enumeration order).

    Returns a list of (lam, mu, nu, value); by the full S3 symmetry this
    determines every ordered triple at size n.  A pair's triples are the
    suffix from mu on of its vector in _pair_vectors: one packed dot and one
    exact divmod per conjugation orbit of pairs.
    """
    check_table_size(n, limit)
    parts = conjugacy_classes(n)[0]
    g = _pair_vectors(n)
    out = []
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts[i:], i):
            out.extend(zip(repeat(lam), repeat(mu), parts[j:], g[i][j][j:]))
    return out
