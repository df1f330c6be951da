import hashlib
from itertools import combinations_with_replacement, permutations, product
from math import factorial
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import characters, kronecker
from artifact.characters import character, clear_memo, strip_row
from artifact.cli import main
from artifact.kronecker import (
    InternalConsistencyError,
    kron_char,
    kron_schur_oracle,
    kron_table,
    kron_tworow,
    padding_threshold,
    reduced_kron,
)
from artifact.partitions import (
    SizeMismatchError,
    conjugate,
    dimension_hlf,
    enumerate_partitions,
    pad,
    subdiagrams,
)
from artifact.tableaux import lr_coefficient, skew_schur_expansion
from artifact.verify import run_property
from test_partitions import class_size


def triples(n):
    parts = list(enumerate_partitions(n))
    for lam in parts:
        for mu in parts:
            for nu in parts:
                yield lam, mu, nu


# -- character route -------------------------------------------------------------


def test_kron_worked_example():
    assert kron_char((2, 1), (2, 1), (2, 1)) == 1


def test_kron_two_row_square():
    assert kron_char((2, 2), (2, 2), (2, 2)) == 1


def test_kron_trivial_third_argument():
    for n in range(1, 10):
        parts = list(enumerate_partitions(n))
        for lam in parts:
            for mu in parts:
                assert kron_char(lam, mu, (n,)) == (1 if lam == mu else 0)


def test_kron_sign_third_argument():
    for n in range(1, 8):
        parts = list(enumerate_partitions(n))
        for lam in parts:
            for mu in parts:
                want = 1 if lam == conjugate(mu) else 0
                assert kron_char(lam, mu, (1,) * n) == want


def test_kron_size_mismatch():
    with pytest.raises(SizeMismatchError):
        kron_char((2, 1), (2, 1), (4,))


def test_kron_s3_symmetry():
    for lam, mu, nu in triples(5):
        base = kron_char(lam, mu, nu)
        for p in permutations((lam, mu, nu)):
            assert kron_char(*p) == base


def test_kron_transpose_symmetry():
    for lam, mu, nu in triples(5):
        assert kron_char(lam, mu, nu) == kron_char(
            conjugate(lam), conjugate(mu), nu
        )


def test_kron_dimension_sum():
    for n in range(1, 7):
        parts = list(enumerate_partitions(n))
        for lam in parts:
            for mu in parts:
                total = sum(
                    kron_char(lam, mu, nu) * dimension_hlf(nu) for nu in parts
                )
                assert total == dimension_hlf(lam) * dimension_hlf(mu)


def test_kron_semigroup_exhaustive():
    # every pair of positive triples of sizes a <= b, a + b <= 8: the first
    # canonical, the second in any order, covers every pair up to symmetry
    def positive(trips):
        return [t for t in trips if kron_char(*t) > 0]

    seconds = {b: positive(triples(b)) for b in range(1, 8)}
    checked = 0
    for a in range(1, 5):
        firsts = positive(combinations_with_replacement(enumerate_partitions(a), 3))
        for b in range(a, 9 - a):
            for first, second in product(firsts, seconds[b]):
                summed = tuple(
                    tuple(
                        x + y
                        for x, y in zip(p + (0,) * len(q), q + (0,) * len(p))
                        if x + y
                    )
                    for p, q in zip(first, second)
                )
                lower = max(kron_char(*first), kron_char(*second))
                assert kron_char(*summed) >= lower
                checked += 1
    assert checked == run_property("semigroup", {"n": 8}).checked_count == 5366


# -- Schur-Weyl oracle -----------------------------------------------------------


def test_oracle_matches_characters_size_4():
    for lam, mu, nu in triples(4):
        assert kron_schur_oracle(lam, mu, nu) == kron_char(lam, mu, nu)


def test_oracle_matches_characters_size_5():
    for lam, mu, nu in triples(5):
        assert kron_schur_oracle(lam, mu, nu) == kron_char(lam, mu, nu)


def test_oracle_worked_example():
    assert kron_schur_oracle((2, 1), (2, 1), (2, 1)) == 1


def test_oracle_sign_identity_to_size_9():
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                want = 1 if lam == conjugate(mu) else 0
                assert kron_schur_oracle(lam, mu, (1,) * n) == want


def test_oracle_two_row_squares_match_closed_form():
    for k in range(51):
        lam = (100 - k, k) if k else (100,)
        assert kron_schur_oracle(lam, (50, 50), (50, 50)) == kron_tworow(50, 2, k)
    assert kron_schur_oracle(*[(100, 100)] * 3) == kron_tworow(100, 2, 100) == 1


@pytest.mark.parametrize(
    "trio, want",
    [
        (((12, 9, 6, 3), (15, 15), (18, 12)), 2),
        (((10, 8, 7, 5), (16, 14), (17, 13)), 3),
        (((16, 12, 8, 4), (20, 20), (24, 16)), 3),
        (((13, 11, 9, 7), (20, 20), (22, 18)), 2),
    ],
)
def test_oracle_matches_characters_on_four_row_triples(trio, want):
    assert kron_char(*trio) == want
    for order in permutations(trio):
        assert kron_schur_oracle(*order) == want


def test_both_routes_accept_list_arguments():
    # the tuples check_partition returns are what the caches and rows key on,
    # the shape words of characters._word among them
    assert kron_char([2, 1], [2, 1], [2, 1]) == 1
    assert kron_schur_oracle([2, 1], [2, 1], [2, 1]) == 1
    assert kron_char([3, 1], [2, 2], [2, 1, 1]) == 1
    assert kron_schur_oracle([3, 1], [2, 1, 1], [2, 2]) == 1
    assert character([2, 1], [3]) == -1


def test_oracle_guards():
    # above size 9 the oracle refuses more than 4 product variables: every
    # arrangement of (4,3,3)^3 and its conjugates needs 9
    with pytest.raises(ValueError, match="n = 10 with 9 variables"):
        kron_schur_oracle((4, 3, 3), (4, 3, 3), (4, 3, 3))
    with pytest.raises(SizeMismatchError):
        kron_schur_oracle((2,), (1, 1), (1,))
    # at n <= 9 any number of variables is admitted
    trio = [(4, 3)] * 3
    assert kron_schur_oracle(*trio) == kron_char(*trio)


# -- two-row closed form -----------------------------------------------------------


def test_tworow_knowns():
    assert kron_tworow(2, 2, 2) == 1
    assert kron_tworow(2, 2, 1) == 0
    for n, d in ((1, 1), (3, 2), (4, 3), (5, 2)):
        assert kron_tworow(n, d, 0) == 1


def test_tworow_range_guard():
    with pytest.raises(ValueError):
        kron_tworow(2, 2, 3)
    with pytest.raises(ValueError):
        kron_tworow(2, 2, -1)


@pytest.mark.parametrize(
    "args, key",
    [((2.5, 2, 2), "n"), ((3, 2.0, 1), "d"), ((3, 2, 1.5), "k"), ((3, 2, True), "k")],
)
def test_tworow_rejects_non_int_arguments(args, key):
    with pytest.raises(ValueError, match=f"^{key} must be an int, got "):
        kron_tworow(*args)


@pytest.mark.parametrize("n, d", [(0, 3), (3, 0), (-1, 2), (0, 0)])
def test_tworow_rejects_n_or_d_below_one(n, d):
    # the error names n and d, not the k that is in range for them
    with pytest.raises(ValueError, match=f"^need n >= 1 and d >= 1, got n={n}, d={d}$"):
        kron_tworow(n, d, 0)


def test_tworow_matches_characters():
    for n, d in ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3), (5, 2)):
        rect = (n,) * d
        for k in range(n * d // 2 + 1):
            lam = (n * d - k, k) if k else (n * d,)
            assert kron_char(lam, rect, rect) == kron_tworow(n, d, k)


# -- reduced coefficients -----------------------------------------------------------


def test_reduced_knowns():
    assert reduced_kron((), (), ()) == 1
    assert reduced_kron((2, 1), (1,), (1, 1)) == 1
    assert reduced_kron([2, 1], [1], [1, 1]) == 1  # validated into tuples
    assert reduced_kron((4, 3), (4, 3), (2, 2, 2, 2, 2, 1)) == 1


def test_reduced_lr_specialization():
    for total in range(5):
        for alpha in enumerate_partitions(total):
            for k in range(total + 1):
                for beta in enumerate_partitions(k):
                    for gamma in enumerate_partitions(total - k):
                        assert reduced_kron(alpha, beta, gamma) == (
                            lr_coefficient(alpha, beta, gamma)
                        )


def canonical_reduced_triples(bound):
    """Each multiset {alpha, beta, gamma} once, padding_threshold <= bound."""
    budget = bound - 1  # padding_threshold is 1 + the sum of these weights

    def weight(p):
        return sum(p) + (p[0] if p else 0)

    parts = sorted(
        (p for s in range(budget + 1) for p in enumerate_partitions(s)),
        key=weight,
    )
    parts = [p for p in parts if weight(p) <= budget]
    for i, a in enumerate(parts):
        for j in range(i, len(parts)):
            b = parts[j]
            if weight(a) + 2 * weight(b) > budget:
                break
            for c in parts[j:]:
                if weight(a) + weight(b) + weight(c) > budget:
                    break
                yield a, b, c


def test_engine_agrees_with_padding():
    corpus = list(canonical_reduced_triples(16))
    assert len(corpus) == 1014
    for trip in corpus:
        assert reduced_kron(*trip) == padded_oracle(*trip)


def test_engine_s3_symmetry():
    for trip in (
        ((2, 1), (1, 1), (2,)),
        ((3,), (2, 1), (1, 1)),
        ((2, 2), (1,), (2, 1)),
    ):
        want = padded_oracle(*trip)
        for p in permutations(trip):
            assert reduced_kron(*p) == want


def test_murnaghan_stability_hits_lr():
    # once every component is padded far enough, the ordinary coefficient
    # of a balanced triple (|mu| + |nu| = |lam|) collapses to the LR number
    for total in range(1, 5):
        n = 2 * total + 1
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    for nu in enumerate_partitions(total - k):
                        g = kron_char(pad(lam, n), pad(mu, n), pad(nu, n))
                        assert g == lr_coefficient(lam, mu, nu)


def test_saturation_family_base_and_stretch():
    # the k=3 family: zero at the base point, positive after stretching
    assert reduced_kron((1,) * 8, (1,) * 8, (3, 3)) == 0
    assert reduced_kron((2,) * 8, (2,) * 8, (6, 6)) > 0


def test_engine_sums_only_vertical_strip_levels(monkeypatch):
    # gbar(A) needs the levels at A minus a vertical strip, not at every
    # subdiagram of A: 3 levels for A = (6, 6) where 28 subdiagrams exist
    summed = []
    quotient = kronecker.exact_quotient

    def recording(total, divisor, *what):
        if what[0] == "level sum at %r":
            summed.append(what[1])
        return quotient(total, divisor, *what)

    monkeypatch.setattr(kronecker, "exact_quotient", recording)
    kronecker._engine_value.cache_clear()
    assert reduced_kron((2,) * 8, (2,) * 8, (6, 6)) > 0
    assert sorted(summed, reverse=True) == [(6, 6), (6, 5), (5, 5)]


def test_engine_builds_each_coupling_once(monkeypatch):
    # the coupling of a strip size does not depend on V, so each
    # phi(big, delta, t) is built once, not once per level of size t
    calls = []
    phi = kronecker._phi

    def counting(big, delta, t):
        calls.append((big, delta, t))
        return phi(big, delta, t)

    monkeypatch.setattr(kronecker, "_phi", counting)
    kronecker._engine_value.cache_clear()
    assert reduced_kron((3, 2, 1), (4, 2), (2, 2, 1, 1)) == 132
    assert len(calls) == len(set(calls)) == 64


def test_reduced_digest_is_pinned():
    # every multiset of three partitions of total size <= 11, the empty one
    # included, each triple in (size, parts) order
    shapes = sorted(
        (p for n in range(12) for p in enumerate_partitions(n)),
        key=lambda p: (sum(p), p),
    )
    trios = [
        trio for trio in combinations_with_replacement(shapes, 3)
        if sum(map(sum, trio)) <= 11
    ]
    assert len(trios) == 1975
    values = [(trio, reduced_kron(*trio)) for trio in trios]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    want = "1c901bb9e3c7a50c21d695699442a2acca2275b96c08dc171f223127bcd55442"
    assert digest == want


def test_engine_strips_each_alpha_once(monkeypatch):
    # ip23 at n = 5 reads 35 distinct (conjugate of alpha, strip size) pairs;
    # each is stripped once, however many (beta, gamma) its alpha comes with,
    # and no strip size whose window is empty is stripped.  The 196 engine
    # calls list only the 196 delta their windows read
    stripped, listed = [], []
    strips, subs = kronecker.remove_horizontal_strips, kronecker.subdiagrams

    def counting(shape, size):
        stripped.append((shape, size))
        return strips(shape, size)

    def listing(meet, least):
        deltas = subs(meet, least)
        listed.extend(deltas)
        return deltas

    monkeypatch.setattr(kronecker, "remove_horizontal_strips", counting)
    monkeypatch.setattr(kronecker, "subdiagrams", listing)
    kronecker._engine_value.cache_clear()
    kronecker._vertical_strips.cache_clear()
    assert run_property("ip23", {"n": 5}).status == "pass"
    assert len(stripped) == len(set(stripped)) == 35
    assert len(listed) == kronecker._engine_value.cache_info().currsize == 196


def per_class_phi(big, delta, t):
    """The closure of s_{big/delta} at size t, summed class by class."""
    terms = [
        (c, strip_row(rho, t))
        for rho, c in skew_schur_expansion(big, delta).items()
        if sum(rho) <= t
    ]
    coeffs = [c for c, _ in terms]
    return [sum(map(mul, coeffs, col)) for col in zip(*(v for _, v in terms))]


def test_phi_adds_whole_rows_like_the_per_class_sum():
    # s_{(3,2,1)/(2,1)} is three separate cells, s_1^3 = s_3 + 2 s_21 + s_111:
    # several constituents and a coefficient above 1, which no sweep reaches
    assert skew_schur_expansion((3, 2, 1), (2, 1)) == {
        (3,): 1, (2, 1): 2, (1, 1, 1): 1
    }
    clear_memo()
    several = scaled = 0
    for size in range(9):
        for big in enumerate_partitions(size):
            for delta in subdiagrams(big):
                expansion = skew_schur_expansion(big, delta)
                several += len(expansion) > 1
                scaled += max(expansion.values()) > 1
                m = size - sum(delta)
                for t in range(m, m + 4):
                    got = kronecker._phi(big, delta, t)
                    assert list(got) == per_class_phi(big, delta, t)
    assert several and scaled
    # the one-constituent case is the stored strip row itself
    assert kronecker._phi((2, 2), (1,), 5) is strip_row((2, 1), 5)


# -- batch table -------------------------------------------------------------------


def test_kron_table_matches_single_queries():
    rows = kron_table(4)
    assert len(rows) == 35  # multisets of size 3 from p(4)=5 partitions
    for lam, mu, nu, val in rows:
        assert val == kron_char(lam, mu, nu)


def test_kron_table_deterministic():
    assert kron_table(5) == kron_table(5)


def test_kron_table_digest_is_pinned():
    # every value and the canonical order of kron_table(n), n = 1..12
    digest = hashlib.sha256()
    for n in range(1, 13):
        digest.update(repr(kron_table(n)).encode())
    want = "f34f02dcff1e1fbb618f79b4644d7d97c9ecd1052e725bed991fad5c3b120326"
    assert digest.hexdigest() == want


def test_kron_table_limit_guard():
    with pytest.raises(ValueError):
        kron_table(23)


# -- kernel differential gate ------------------------------------------------------


def per_call_contraction(lam, mu, nu):
    """Oracle: the contraction from one character() call per class and shape."""
    n = sum(lam)
    total = sum(
        class_size(a) * character(lam, a) * character(mu, a) * character(nu, a)
        for a in enumerate_partitions(n)
    )
    value, rem = divmod(total, factorial(n))
    assert rem == 0 and value >= 0
    return value


def padded_oracle(alpha, beta, gamma):
    """Oracle: gbar by its definition, kron_char of the padded arguments.

    Pads to n0 = padding_threshold and to n0 + 1; the two values must agree,
    or n0 was not yet in the stable range.
    """
    n0 = padding_threshold(alpha, beta, gamma)
    first, again = (
        kron_char(pad(alpha, n), pad(beta, n), pad(gamma, n))
        for n in (n0, n0 + 1)
    )
    assert first == again, (n0, first, again)
    return first


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_matches_per_call_contraction(n):
    rows = kron_table(n)
    canonical = combinations_with_replacement(enumerate_partitions(n), 3)
    assert [row[:3] for row in rows] == list(canonical)
    for lam, mu, nu, value in rows:
        want = per_call_contraction(lam, mu, nu)
        assert value == want
        assert kron_char(lam, mu, nu) == want
        assert want == kron_schur_oracle(lam, mu, nu)


@pytest.mark.parametrize("n", [9, 10])
def test_packed_table_matches_kron_char_on_more_fields(n):
    # kron_char dots the rows directly, so it checks kron_table's packing
    # at 30 and 42 fields per class column
    rows = kron_table(n)
    canonical = combinations_with_replacement(enumerate_partitions(n), 3)
    assert rows == [(*trio, kron_char(*trio)) for trio in canonical]


def _assert_table_fails_as_the_direct_contraction(monkeypatch, shape, entry, first):
    """Set chi^shape of S_4 at class (3,1) to entry; kron_table(4) must raise
    the message of the first triple whose direct contraction fails, and
    that triple is first."""
    parts, sizes = characters.conjugacy_classes(4)
    row = strip_row(shape, 4)
    key = (characters._word(shape), 4)
    assert characters._rows[key] == row and parts[1] == (3, 1)
    monkeypatch.setitem(characters._rows, key, (row[0], entry, *row[2:]))
    order = factorial(4)
    for trio in combinations_with_replacement(parts, 3):
        factors = zip(sizes, *(strip_row(p, 4) for p in trio))
        total = sum(size * a * b * c for size, a, b, c in factors)
        value, rem = divmod(total, order)
        if rem or value < 0:
            break
    assert trio == first
    check = "leaves remainder %d" % rem if rem else "is negative"
    message = "g(%r, %r, %r): %d / %d %s" % (*trio, total, order, check)
    with pytest.raises(InternalConsistencyError) as failure:
        kron_table(4)
    assert str(failure.value) == message


def test_corrupted_row_does_not_overflow_a_packed_field(monkeypatch):
    # chi^(4) with 10**30 at class (3,1): g((4,), (4,), (4,)) still divides
    # exactly, with a 302-bit total in its field, and the first failure is
    # g((4,), (4,), (2,2)).  A field sized for true characters (n! M bits)
    # would carry that total into its neighbours and change the message.
    first = (4,), (4,), (2, 2)
    _assert_table_fails_as_the_direct_contraction(monkeypatch, (4,), 10**30, first)


def test_negative_field_past_the_first_does_not_borrow(monkeypatch):
    # chi^(2,2) with -10**30 at class (3,1) makes field (2,2), the third of
    # each packed column, hugely negative.  The bias keeps every field
    # nonnegative, so it borrows nothing from the fields above it.
    first = (4,), (4,), (2, 2)
    _assert_table_fails_as_the_direct_contraction(monkeypatch, (2, 2), -(10**30), first)


def test_remainder_alone_fails_the_packed_division(monkeypatch):
    # chi^(3,1) with 1 at class (3,1), where it is 0: g((4,), (4,), (3,1))
    # totals 8, nonnegative but not a multiple of 24, in the second field
    first = (4,), (4,), (3, 1)
    _assert_table_fails_as_the_direct_contraction(monkeypatch, (3, 1), 1, first)


def test_negative_top_field_fails_the_packed_division(monkeypatch):
    # chi^(1^4) with -2 at class (3,1), where it is 1: g((4,), (4,), (1^4))
    # totals -24, an exact multiple with quotient -1, in the last field,
    # where no field above it can show a borrow
    first = (4,), (4,), (1, 1, 1, 1)
    _assert_table_fails_as_the_direct_contraction(monkeypatch, (1, 1, 1, 1), -2, first)


def test_table_divides_once_per_packed_dot(monkeypatch):
    # kron_table(8) takes 78 packed dots, one per conjugation orbit of
    # pairs; on true characters each is one divmod, and no field is divided
    # on its own
    calls = {"divmod": 0, "exact_quotient": 0}

    def counting(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(kronecker, "divmod", counting("divmod", divmod), raising=False)
    quotient = counting("exact_quotient", kronecker.exact_quotient)
    monkeypatch.setattr(kronecker, "exact_quotient", quotient)
    assert len(kron_table(8)) == 2024
    assert calls == {"divmod": 78, "exact_quotient": 0}


def _fields_by_divmod(vectors, x, order):
    """The oracle: every dot of x, divided on its own, or None if one fails."""
    out = []
    for v in vectors:
        value, rem = divmod(sum(map(mul, x, v)), order)
        if rem or value < 0:
            return None
        out.append(value)
    return out


@st.composite
def packed_cases(draw):
    """(vectors, x, order, bound) with |every dot| <= order * bound.

    Half the cases make every vector a multiple of order, so every dot
    divides, and then may nudge one coordinate of one vector, which spoils
    at most that vector's dot."""
    order = draw(st.sampled_from([1] + [factorial(n) for n in range(1, 11)]))
    count, length = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    entry = st.integers(-(10**30), 10**30)
    if draw(st.booleans()):
        top = 10**30 // order
        least = draw(st.sampled_from([0, -top]))
        entry = st.integers(least, top).map(lambda w: order * w)
    vector = st.lists(entry, min_size=length, max_size=length)
    vectors = draw(st.lists(vector, min_size=count, max_size=count))
    if draw(st.booleans()):
        k, t = draw(st.integers(0, count - 1)), draw(st.integers(0, length - 1))
        vectors[k][t] += draw(st.integers(-order, order))
    x = draw(st.lists(st.integers(-(10**30), 10**30), min_size=length, max_size=length))
    if draw(st.booleans()):
        x = [abs(c) for c in x]
    most = max(abs(sum(map(mul, x, v))) for v in vectors)
    bound = -(-most // order) + draw(st.integers(0, 3))
    return vectors, x, order, bound


@settings(max_examples=400, deadline=None)
@given(packed_cases())
# q = 202 has no high bit and d = 7 none either, but -15 / 7 is no quotient
@example(([[-15], [1]], [1], 7, 3))
# r = 0 and q = 0 has no high bit, but the quotient -1 is negative
@example(([[-1]], [1], 1, 1))
def test_packed_dot_matches_per_field_divmod(case):
    vectors, x, order, bound = case
    want = _fields_by_divmod(vectors, x, order)
    assert kronecker._pack(vectors, order, bound)(x) == want


@pytest.mark.parametrize(
    "corrupted",
    [
        (-1, 0, 3),  # total 25, not a multiple of 3! = 6
        (-1, 0, -4),  # total -66, a multiple of 6 but negative
    ],
)
def test_corrupted_kernel_row_is_a_hard_failure(monkeypatch, corrupted):
    assert strip_row((2, 1), 3) == (-1, 0, 2)
    monkeypatch.setitem(characters._rows, (characters._word((2, 1)), 3), corrupted)
    with pytest.raises(InternalConsistencyError):
        kron_char((2, 1), (2, 1), (2, 1))
    with pytest.raises(InternalConsistencyError):
        kron_table(3)
    with pytest.raises(InternalConsistencyError):
        run_property("dimension-sum", {"n": 3})


@pytest.mark.parametrize(
    "corrupted,check",
    [
        ((-1, 0, 3), "188 / 6 leaves remainder 2"),  # level total 188 = 31 * 6 + 2
        ((-1, 0, -4), "-288 / 6 is negative"),  # level total -288
        ((1, -1, 1), "negative reduced coefficient -2"),  # the sign row: 8 - 10
    ],
)
def test_corrupted_level_is_a_hard_failure(monkeypatch, capsys, corrupted, check):
    # gbar((2,1), (2,1), (2,1)) = 9: its top level at u = (2,1) is 19 and
    # the three lower levels add up to -10.  The top level reads chi^(2,1)
    # of S_3 twice, as its class weights and as the strip closure of (2,1)
    kronecker._engine_value.cache_clear()
    assert reduced_kron((2, 1), (2, 1), (2, 1)) == 9
    assert strip_row((2, 1), 3) == (-1, 0, 2)
    monkeypatch.setitem(characters._rows, (characters._word((2, 1)), 3), corrupted)
    kronecker._engine_value.cache_clear()
    with pytest.raises(InternalConsistencyError, match=check):
        reduced_kron((2, 1), (2, 1), (2, 1))
    assert main(["rkron", "2,1", "2,1", "2,1"]) == 3
    err = capsys.readouterr().err
    assert "internal consistency failure" in err and check in err


def test_single_query_builds_only_its_rows():
    # one padded-oracle step at n0 = 16 must not pay for the 231-row table
    trio = (10, 5, 1), (9, 7), (8, 8)
    clear_memo()
    assert kron_char(*trio) == per_call_contraction(*trio)
    assert len(characters.conjugacy_classes(16)[0]) == 231
    size_16 = [w for w, m in characters._rows if m == 16]
    assert sorted(size_16) == sorted(map(characters._word, trio))
    # one row per (word, size): 98 rows of 2,008 entries, not one per bound
    assert len(characters._rows) == 98
    assert sum(map(len, characters._rows.values())) == 2008
