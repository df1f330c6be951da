import json
from itertools import combinations_with_replacement as multisets
from itertools import permutations, product
from math import factorial

import pytest

from artifact import characters, kronecker, tableaux, verify
from artifact.characters import (
    ClassSum,
    InternalConsistencyError,
    clear_memo,
    conjugacy_classes,
    strip_row,
)
from artifact.cli import main
from artifact.kronecker import kron_char, kron_tworow, reduced_kron
from artifact.partitions import (
    add,
    centralizer_order,
    conjugate,
    dimension_hlf,
    enumerate_partitions,
    pad,
    principal_hooks,
)
from artifact.tableaux import lr_coefficient, skew_schur_expansion
from artifact.verify import (
    Report,
    _matrix_count,
    property_names,
    run_property,
    search_saturation_counterexample,
)


def test_registry_names():
    assert property_names() == [
        "cauchy",
        "char-bound",
        "dimension-sum",
        "foulkes",
        "ip23",
        "kron-symmetry",
        "murnaghan",
        "orthogonality",
        "pp20-bound",
        "saxl",
        "semigroup",
        "tensor-square",
        "transpose",
        "tworow",
    ]


def test_unknown_property():
    with pytest.raises(ValueError):
        run_property("saturation")


def test_param_guards():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        run_property("orthogonality", {"n": 0})
    with pytest.raises(ValueError, match="^n=23 exceeds the cap of 22$"):
        run_property("orthogonality", {"n": 23})  # above the table cap
    with pytest.raises(ValueError, match="^k=9 exceeds the cap of 8$"):
        run_property("saxl", {"k": 9})
    with pytest.raises(ValueError, match="^n=12 exceeds the cap of 11$"):
        run_property("semigroup", {"n": 12})


@pytest.mark.parametrize(
    "name,params,message",
    [
        ("saxl", {"n": 5}, "saxl takes no 'n'; it takes k"),
        ("murnaghan", {"cap": 99}, "murnaghan takes no 'cap'; it takes max_size"),
        ("orthogonality", {"bogus": 1}, "orthogonality takes no 'bogus'; it takes n, cap"),
        ("foulkes", {"k": 2}, "foulkes takes no 'k'; it takes d, n, cap"),
        ("orthogonality", {"n": 3.7}, "n must be an int, got 3.7"),
        ("saxl", {"k": "3"}, "k must be an int, got '3'"),
        ("tworow", {"max_cells": True}, "max_cells must be an int, got True"),
        ("semigroup", {"samples": 40}, "semigroup takes no 'samples'; it takes n"),
        ("cauchy", {"nvars": 3}, "cauchy takes no 'nvars'; it takes max_degree"),
    ],
)
def test_params_the_property_does_not_read_are_rejected(name, params, message):
    with pytest.raises(ValueError) as err:
        run_property(name, params)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "name,params,checked",
    [
        ("orthogonality", {"n": 5}, 2 * 7 * 7),
        ("saxl", {"k": 3}, 11),
        ("kron-symmetry", {"n": 4}, 35),
        ("transpose", {"n": 4}, 15 * 5),
        ("dimension-sum", {"n": 5}, 28),
        ("semigroup", {"n": 8}, 5366),
        ("murnaghan", {"max_size": 3}, 42),
        ("char-bound", {"n": 9}, 2 * 30),
        ("pp20-bound", {"n": 5}, 84),
        ("foulkes", {"d": 3, "n": 2}, 11),
        ("ip23", {"n": 3}, 6 * 3),
        ("cauchy", {"max_degree": 4}, 30),
        ("murnaghan", {"max_size": 8}, 6829),
    ],
)
def test_properties_pass(name, params, checked):
    report = run_property(name, params)
    assert report.status == "pass"
    assert report.checked_count == checked
    assert report.property == name


def test_tworow_counts_every_k():
    report = run_property("tworow", {"max_cells": 8})
    want = sum(
        n * d // 2 + 1
        for n in range(1, 9)
        for d in range(1, 8 // n + 1)
    )
    assert report.status == "pass"
    assert report.checked_count == want


def test_tensor_square_below_conjecture_range():
    report = run_property("tensor-square", {"n": 4})
    assert report.status == "pass"  # conjecture silent below n = 9
    assert report.witness["self_conjugate"] == [(2, 2)]
    assert report.witness["covering"] == []


def test_tensor_square_first_conjectured_size_fails():
    # Of the two symmetric shapes of 9, the hook square misses (3,3,3) and
    # the square shape misses much more -- confirmed against the
    # contingency/Kostka oracle, so the harness records a genuine
    # counterexample to the printed n >= 9 statement.
    report = run_property("tensor-square", {"n": 9})
    assert report.status == "fail"
    assert report.witness["self_conjugate"] == [(5, 1, 1, 1, 1), (3, 3, 3)]
    assert report.witness["covering"] == []


def test_tensor_square_recovers_at_ten():
    report = run_property("tensor-square", {"n": 10})
    assert report.status == "pass"
    assert report.witness["covering"] == [(5, 2, 1, 1, 1), (4, 3, 2, 1)]
    # only a self-conjugate lam can cover 1^n: g(lam, lam, 1^n) is
    # <chi^lam, chi^lam'>, 1 when lam = lam' and 0 otherwise
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            assert verify._square(lam, (1,) * n) == int(lam == conjugate(lam))


def test_reports_identical_across_workers():
    # sweeps are serial, so two runs agree on everything but elapsed time
    one = run_property("kron-symmetry", {"n": 5})
    two = run_property("kron-symmetry", {"n": 5})
    assert (one.status, one.witness, one.checked_count) == (
        two.status,
        two.witness,
        two.checked_count,
    )


def test_semigroup_sample_is_reproducible():
    first = run_property("semigroup", {"n": 8})
    second = run_property("semigroup", {"n": 8})
    assert (first.status, first.witness, first.checked_count) == (
        second.status,
        second.witness,
        second.checked_count,
    )


def test_saturation_guards():
    with pytest.raises(ValueError):
        search_saturation_counterexample(2, 4)
    with pytest.raises(ValueError):
        search_saturation_counterexample(3, 1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3.0, 4), "k must be an int, got 3.0"),
        ((3, 4.0), "n_max must be an int, got 4.0"),
        ((3, 4, "x"), "size_cap must be an int, got 'x'"),
        ((True, 4), "k must be an int, got True"),
    ],
)
def test_saturation_rejects_arguments_that_are_not_ints(args, message):
    # the same message as run_property's, before any range check
    with pytest.raises(ValueError, match=f"^{message}$"):
        search_saturation_counterexample(*args)


def test_saturation_default_cap_is_inconclusive():
    report = search_saturation_counterexample(3, 4)
    assert report.status == "inconclusive-within-range"
    assert report.checked_count == 1  # base triple only
    assert report.witness["base_value"] == 0
    assert report.witness["stopped_at_stretch"] == 2


def test_saturation_raised_cap_confirms():
    report = search_saturation_counterexample(3, 4, size_cap=100)
    assert report.status == "counterexample-confirmed"
    assert report.witness["base_value"] == 0
    assert report.witness["stretch"] == 2
    assert report.witness["value"] == 80
    assert report.witness["stretched"] == (
        (2,) * 8,
        (2,) * 8,
        (6, 6),
    )


def test_saturation_cap_binds_at_base_for_k4():
    report = search_saturation_counterexample(4, 2)
    assert report.status == "inconclusive-within-range"
    assert report.checked_count == 0
    assert report.witness["stopped_at_stretch"] == 1


def test_saturation_k4_confirms_at_stretch_2():
    # a regression pin, not an independent recheck: 602 is the engine's own
    # value at stretch 2, first recorded from the inversion over every
    # subdiagram; no other route reaches this witness (its padding size is 97)
    report = search_saturation_counterexample(4, 2, size_cap=10**6)
    assert report.status == "counterexample-confirmed"
    assert report.witness["base_value"] == 0
    assert report.witness["stretch"] == 2
    assert report.witness["value"] == 602
    assert report.witness["stretched"] == ((2,) * 15, (2,) * 15, (8, 8, 8))


def test_saturation_positive_base_fails(monkeypatch):
    # the real base value is 0; a positive one ends the search at once
    monkeypatch.setattr(verify, "reduced_kron", lambda *trip: 1)
    report = search_saturation_counterexample(3, 4)
    assert report.status == "fail"
    assert report.checked_count == 1
    assert list(report.witness) == ["base", "base_value", "reason"]
    assert report.witness["base_value"] == 1
    assert report.witness["reason"] == "base triple is already positive"


def test_saturation_all_zero_stretches_are_inconclusive(monkeypatch):
    monkeypatch.setattr(verify, "reduced_kron", lambda *trip: 0)
    report = search_saturation_counterexample(3, 5, size_cap=10**6)
    assert report.status == "inconclusive-within-range"
    assert report.checked_count == 5
    assert list(report.witness) == ["base", "base_value", "reason"]
    assert report.witness["base_value"] == 0
    assert report.witness["reason"] == "no positive stretch within range"


def test_report_json_is_all_strings():
    report = search_saturation_counterexample(3, 2)
    doc = report.to_json()
    assert doc["checked_count"] == "1"
    assert doc["elapsed_ms"].isdigit()
    assert doc["params"] == {"k": "3", "n_max": "2", "size_cap": "35"}
    assert doc["witness"]["base"] == [["1"] * 8, ["1"] * 8, ["3", "3"]]
    json.dumps(doc)  # round-trips

    def no_bare_numbers(obj):
        assert not isinstance(obj, (int, float))
        if isinstance(obj, dict):
            for v in obj.values():
                no_bare_numbers(v)
        elif isinstance(obj, list):
            for v in obj:
                no_bare_numbers(v)

    no_bare_numbers(doc)


def test_report_dataclass_fields():
    report = run_property("saxl", {"k": 3})
    assert isinstance(report, Report)
    assert report.params == {"k": 3}
    assert report.witness is None
    assert report.elapsed >= 0


def test_matrix_count_small():
    # 2x2 nonnegative matrices with row sums (1,1) and column sums (1,1):
    # the identity and the swap
    assert _matrix_count((1, 1), (1, 1)) == 2
    assert _matrix_count((2, 0), (1, 1)) == 1
    assert _matrix_count((2,), (1, 2)) == 0


@pytest.mark.parametrize(
    "n,corrupt,witness,checked",
    [
        # chi^(3,1,1) one too big on the class (3, 2): the first failing
        # column pair is ((5,), (3, 2))
        (5, "row", ("col", (5,), (3, 2), 1, 0), 98),
        # |C_(7)| one too big breaks no column pair, only the row pairs
        (7, "size", ("row", (7,), (7,), 5041, 5040), 450),
    ],
)
def test_orthogonality_reports_the_first_failing_pair(
    monkeypatch, n, corrupt, witness, checked
):
    classes, sizes = conjugacy_classes(n)
    if corrupt == "row":
        row = list(strip_row((3, 1, 1), n))
        row[classes.index((3, 2))] += 1
        key = characters._word((3, 1, 1)), n
        monkeypatch.setitem(characters._rows, key, tuple(row))
    else:
        corrupted = classes, (sizes[0] + 1,) + sizes[1:]
        monkeypatch.setattr(
            verify, "conjugacy_classes",
            lambda m: corrupted if m == n else conjugacy_classes(m),
        )
    report = run_property("orthogonality", {"n": n})
    assert report.status == "fail"
    keys = ("kind", "first", "second", "sum", "expected")
    assert report.witness == dict(zip(keys, witness))
    assert report.checked_count == checked


def _reference_orthogonality(n):
    """Every column pair, then every row pair, each dotted on its own."""
    classes, sizes = conjugacy_classes(n)
    rows = [strip_row(lam, n) for lam in classes]
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            total = sum(row[i] * row[j] for row in rows)
            want = centralizer_order(a) if i == j else 0
            yield None if total == want else {
                "kind": "col", "first": a, "second": b, "sum": total, "expected": want
            }
    for i, lam in enumerate(classes):
        for j, mu in enumerate(classes):
            total = sum(z * x * y for z, x, y in zip(sizes, rows[i], rows[j]))
            want = factorial(n) if i == j else 0
            yield None if total == want else {
                "kind": "row", "first": lam, "second": mu, "sum": total, "expected": want
            }


@pytest.mark.parametrize(
    "n, entry", [*((n, None) for n in range(1, 10)), (6, 10**30), (6, -(10**30))]
)
def test_orthogonality_matches_the_per_pair_reference(monkeypatch, n, entry):
    # the packed dots read every pair's sum exactly, also when one entry of
    # chi^(3,2,1) at class (3,1,1,1), not the first of the row, is set far
    # beyond any character value
    if entry is not None:
        classes = conjugacy_classes(n)[0]
        row = list(strip_row((3, 2, 1), n))
        row[classes.index((3, 1, 1, 1))] = entry
        key = characters._word((3, 2, 1)), n
        monkeypatch.setitem(characters._rows, key, tuple(row))
    params = {"n": n}
    want = _reference_report("orthogonality", params, _reference_orthogonality(n))
    assert (want.status == "fail") == (entry is not None)
    got = run_property("orthogonality", params)
    assert _without_elapsed(got) == _without_elapsed(want)


def test_saxl_contraction_matches_kron_char():
    # the square contraction against the dense route on every lam, mu of
    # n <= 12; the supports and the MN memo are cleared before each n, so
    # contract computes every value it reads
    for n in range(13):
        verify._square_support.cache_clear()
        clear_memo()
        shapes = enumerate_partitions(n)
        for lam in shapes:
            for mu in shapes:
                assert verify._square(lam, mu) == kron_char(lam, lam, mu)
    # the staircases up to k = 6 (n = 21) too; every hook length of a
    # staircase is odd, so its support has odd parts only
    verify._square_support.cache_clear()
    clear_memo()
    for k in range(1, 7):
        delta = tuple(range(k, 0, -1))
        support = verify._square_support(delta)
        assert all(part % 2 for alpha in support.classes for part in alpha)
        for mu in enumerate_partitions(sum(delta)):
            assert verify._square(delta, mu) == kron_char(delta, delta, mu)


def test_corrupted_saxl_weight_exits_3(monkeypatch, capsys):
    true = verify._square_support((3, 2, 1))
    weights = (true.weights[0] + 1,) + true.weights[1:]
    corrupted = ClassSum(dict(zip(true.classes, weights)))
    monkeypatch.setattr(verify, "_square_support", lambda delta: corrupted)
    assert main(["verify", "saxl", "--k", "3"]) == 3
    assert "internal consistency failure" in capsys.readouterr().err


def test_kron_lookup_matches_kron_char_on_every_ordered_triple():
    for n in range(1, 8):
        parts, index, g = verify._kron_lookup(n)
        assert parts == tuple(enumerate_partitions(n))
        assert index == {p: i for i, p in enumerate(parts)}
        for i, j, k in product(range(len(parts)), repeat=3):
            assert g[i][j][k] == kron_char(parts[i], parts[j], parts[k])


# Per-triple references: each sweep as it read g from kron_char, one triple
# at a time.  Each yields the witness or None of every item in sweep order.


def _reference_transpose(n, kron=kron_char):
    parts = enumerate_partitions(n)
    for lam, mu in multisets(parts, 2):
        for nu in parts:
            lhs = kron(lam, mu, nu)
            rhs = kron(conjugate(lam), conjugate(mu), nu)
            yield None if lhs == rhs else {
                "lambda": lam, "mu": mu, "nu": nu, "plain": lhs, "transposed": rhs
            }


def _reference_dimension_sum(n, kron=kron_char):
    parts = enumerate_partitions(n)
    for lam, mu in multisets(parts, 2):
        total = sum(dimension_hlf(nu) * kron(lam, mu, nu) for nu in parts)
        want = dimension_hlf(lam) * dimension_hlf(mu)
        yield None if total == want else {
            "lambda": lam, "mu": mu, "sum": total, "expected": want
        }


def _reference_pp20(n, kron=kron_char):
    for lam, mu, nu in multisets(enumerate_partitions(n), 3):
        lmr = len(lam) * len(mu) * len(nu)
        g = kron(lam, mu, nu)
        bound = g * n**n * lmr**lmr <= (n + lmr) ** (n + lmr)
        yield None if bound else {"lambda": lam, "mu": mu, "nu": nu, "value": g}


def _reference_ip23(n, kron=kron_char):
    parts = enumerate_partitions(n)
    for lam, mu in multisets(parts, 2):
        for nu in parts:
            head = nu[0]
            first = tuple(part + head for part in lam)
            second = tuple(part + head for part in mu)
            third = (head,) * (len(lam) + len(mu)) + nu
            g = kron(lam, mu, nu)
            gbar = reduced_kron(first, second, third)
            yield None if g == gbar else {
                "lambda": lam,
                "mu": mu,
                "nu": nu,
                "ordinary": g,
                "reduced_arguments": [first, second, third],
                "reduced": gbar,
            }


def _reference_semigroup(n, kron=kron_char):
    # each pair of positive triples of sizes a <= b, a + b <= n: the first
    # canonical, the second each distinct ordering of a canonical one
    positives = {
        m: [trip for trip in multisets(enumerate_partitions(m), 3) if kron(*trip) > 0]
        for m in range(1, n)
    }
    sizes = [(a, b) for a in range(1, n // 2 + 1) for b in range(a, n - a + 1)]
    for a, b in sizes:
        for first, trip in product(positives[a], positives[b]):
            for second in dict.fromkeys(permutations(trip)):
                summed = tuple(add(p, q) for p, q in zip(first, second))
                got = kron(*summed)
                lower = max(kron(*first), kron(*second))
                yield None if got >= lower else {
                    "first": first,
                    "second": second,
                    "summed": summed,
                    "value": got,
                    "lower_bound": lower,
                }


def _reference_kron_symmetry(n, kron):
    # permutations lists the argument orders lmn, lnm, mln, mnl, nlm, nml
    for trip in multisets(enumerate_partitions(n), 3):
        values = [kron(*order) for order in permutations(trip)]
        yield None if len(set(values)) == 1 else {
            "lambda": trip[0],
            "mu": trip[1],
            "nu": trip[2],
            "values": dict(zip(("lmn", "lnm", "mln", "mnl", "nlm", "nml"), values)),
        }


def _reference_saxl(k, square):
    delta = tuple(range(k, 0, -1))
    for mu in enumerate_partitions(sum(delta)):
        value = square(delta, mu)
        yield None if value > 0 else {"staircase": delta, "mu": mu, "value": value}


def _reference_char_bound(n, char):
    shapes = enumerate_partitions(n)
    for lam in shapes:
        if lam != conjugate(lam):
            continue
        hooks = principal_hooks(lam)
        for mu in shapes:
            g, bound = kron_char(lam, lam, mu), abs(char(mu, hooks))
            yield None if g >= bound else {
                "lambda": lam,
                "principal_hooks": hooks,
                "mu": mu,
                "value": g,
                "bound": bound,
            }


def _reference_cauchy(max_degree, kost):
    nvars = verify.CAUCHY_NVARS
    for degree in range(1, max_degree + 1):
        shapes = enumerate_partitions(degree, max_len=nvars)
        for a, b in product(shapes, repeat=2):
            lhs = sum(kost(lam, a) * kost(lam, b) for lam in shapes)
            rows, cols = (p + (0,) * (nvars - len(p)) for p in (a, b))
            rhs = _matrix_count(rows, cols)
            yield None if lhs == rhs else {
                "row_sums": a, "column_sums": b, "schur_side": lhs, "matrix_side": rhs
            }


def _without_elapsed(report):
    out = report.to_json()
    del out["elapsed_ms"]
    return out


def _reference_report(name, params, witnesses):
    witnesses = list(witnesses)
    first = next((w for w in witnesses if w is not None), None)
    status = "pass" if first is None else "fail"
    return Report(name, params, status, first, len(witnesses), 0.0)


TABLE_SWEEPS = {
    "transpose": _reference_transpose,
    "dimension-sum": _reference_dimension_sum,
    "pp20-bound": _reference_pp20,
}


@pytest.mark.parametrize("name", TABLE_SWEEPS)
@pytest.mark.parametrize("n", [*range(1, 9), 10])
def test_table_sweeps_match_the_per_triple_reference(name, n):
    params = {"n": n}
    reference = _reference_report(name, params, TABLE_SWEEPS[name](n))
    got = run_property(name, params)
    assert _without_elapsed(got) == _without_elapsed(reference)


def test_ip23_and_semigroup_match_the_per_triple_reference():
    for n in range(1, 6):
        reference = _reference_report("ip23", {"n": n}, _reference_ip23(n))
        got = run_property("ip23", {"n": n})
        assert _without_elapsed(got) == _without_elapsed(reference)
    for n in range(1, 9):
        reference = _reference_report("semigroup", {"n": n}, _reference_semigroup(n))
        got = run_property("semigroup", {"n": n})
        assert _without_elapsed(got) == _without_elapsed(reference)


def _bump(monkeypatch, bumped, by=10**9):
    """Raise g(bumped) by ``by`` in verify's kron_char and pair vectors alike.

    Every ordering of bumped rises in the vectors, which kron_table reads
    too, so pp20-bound sees the bump as well.
    """

    def kron(*trip):
        return kron_char(*trip) + by * (sorted(trip) == sorted(bumped))

    monkeypatch.setattr(verify, "kron_char", kron)
    _wrap_vectors(monkeypatch, set(permutations(bumped)), by)
    return kron


def _wrap_vectors(monkeypatch, triples, by):
    """Add ``by`` to g at each ordered triple of shapes in triples, in the pair
    vectors wherever they are read.  Every vector is copied first, so the
    bump lands in no vector that shares a list with a bumped one."""
    true = kronecker._pair_vectors

    def vectors(n):
        g = [[list(vector) for vector in row] for row in true(n)]
        index = {p: i for i, p in enumerate(enumerate_partitions(n))}
        for trip in triples:
            if trip[0] in index:
                i, j, k = map(index.get, trip)
                g[i][j][k] += by
        return g

    monkeypatch.setattr(kronecker, "_pair_vectors", vectors)
    monkeypatch.setattr(verify, "_pair_vectors", vectors)


def test_a_bumped_g_gives_the_reference_witness(monkeypatch):
    # one g of size 5 is bumped, so each sweep fails and must name the
    # reference's first witness; semigroup at n = 7 reads it as a second
    kron = _bump(monkeypatch, ((4, 1), (3, 2), (3, 1, 1)))
    sweeps = {**TABLE_SWEEPS, "ip23": _reference_ip23}
    for name, reference in sweeps.items():
        want = _reference_report(name, {"n": 5}, reference(5, kron))
        assert want.status == "fail"
        assert _without_elapsed(run_property(name, {"n": 5})) == _without_elapsed(want)
    want = _reference_report("semigroup", {"n": 7}, _reference_semigroup(7, kron))
    assert want.status == "fail"
    got = run_property("semigroup", {"n": 7})
    assert _without_elapsed(got) == _without_elapsed(want)


def test_transpose_checks_the_vectors_against_an_independent_dot(monkeypatch):
    # g((4,1), (3,2), (3,1,1)) rises by 1 in the vectors of both (lam, mu)
    # and (lam', mu'), as a table read from one dot would carry it: the two
    # vectors still agree, so only transpose's own dot of (lam', mu') sees it
    lam, mu, nu = (4, 1), (3, 2), (3, 1, 1)
    bar, mu_bar = conjugate(lam), conjugate(mu)
    bumped = [(lam, mu, nu), (mu, lam, nu), (bar, mu_bar, nu), (mu_bar, bar, nu)]
    _wrap_vectors(monkeypatch, bumped, 1)
    _, index, g = verify._kron_lookup(5)
    assert g[index[lam]][index[mu]] == g[index[bar]][index[mu_bar]]
    value = kron_char(lam, mu, nu)
    report = run_property("transpose", {"n": 5})
    assert report.status == "fail"
    assert report.witness == {
        "lambda": lam, "mu": mu, "nu": nu, "plain": value + 1, "transposed": value
    }


def test_transpose_sees_a_wrong_row_read_through_its_conjugate():
    # chi^(4,1) of S_5 is stored as chi^(3,2), a true character, so every
    # dot still divides, and chi^(2,1,1,1) is then read through it as
    # sgn chi^(3,2): the dense rows keep the symmetry, so only the point
    # route on transpose's right side sees the wrong row.  At nu = (3,2)
    # the dense rows give g((5), (3,2), (3,2)) = 1.
    clear_memo()
    try:
        strip_row((3, 2), 5)
        rows, word = characters._rows, characters._word
        rows[word((4, 1)), 5] = rows[word((3, 2)), 5]
        report = run_property("transpose", {"n": 5})
        assert strip_row((2, 1, 1, 1), 5) == strip_row((2, 2, 1), 5)
    finally:
        clear_memo()
    assert report.status == "fail"
    assert report.witness == {
        "lambda": (5,), "mu": (4, 1), "nu": (3, 2), "plain": 1, "transposed": 0
    }


@pytest.mark.parametrize("excess, status", [(0, "pass"), (1, "fail")])
def test_pp20_fails_exactly_past_its_bound(monkeypatch, excess, status):
    # g((5, 2), (4, 3), (3, 2, 2)) = 1 is raised to the largest value the
    # bound allows at lmr = 12 and n = 7, then to one more
    n, bumped, lmr = 7, ((5, 2), (4, 3), (3, 2, 2)), 12
    most = (n + lmr) ** (n + lmr) // (n**n * lmr**lmr)
    kron = _bump(monkeypatch, bumped, most + excess - kron_char(*bumped))
    want = _reference_report("pp20-bound", {"n": n}, _reference_pp20(n, kron))
    assert want.status == status
    if status == "fail":
        assert want.witness == dict(zip(("lambda", "mu", "nu"), bumped), value=most + 1)
    assert _without_elapsed(run_property("pp20-bound", {"n": n})) == _without_elapsed(want)


def test_semigroup_bounds_the_sum_by_the_larger_sampled_g(monkeypatch):
    # the bumped triple has size 5 > 7 // 2, so at n = 7 it is only ever a
    # `second`: only a bound that reads the second g as well as the first
    # sees it
    n, bumped = 7, ((3, 2), (3, 1, 1), (3, 1, 1))
    kron = _bump(monkeypatch, bumped)
    want = _reference_report("semigroup", {"n": n}, _reference_semigroup(n, kron))
    assert want.status == "fail" and want.witness["second"] == bumped
    assert want.witness["lower_bound"] == kron(*bumped)
    got = run_property("semigroup", {"n": n})
    assert _without_elapsed(got) == _without_elapsed(want)


def test_semigroup_names_the_first_pair_under_a_lowered_g(monkeypatch):
    # g((5, 1, 1), (4, 3), (4, 2, 1)) = 2 is lowered to 1 in the table; the
    # first pair that sums to it with a g of 2 orders its second out of
    # canonical order
    lowered = ((5, 1, 1), (4, 3), (4, 2, 1))
    kron = _bump(monkeypatch, lowered, -1)
    want = _reference_report("semigroup", {"n": 7}, _reference_semigroup(7, kron))
    assert want.witness == {
        "first": ((2,), (1, 1), (1, 1)),
        "second": ((3, 1, 1), (3, 2), (3, 1, 1)),
        "summed": lowered,
        "value": 1,
        "lower_bound": 2,
    }
    got = run_property("semigroup", {"n": 7})
    assert _without_elapsed(got) == _without_elapsed(want)


def test_semigroup_checks_every_pair_up_to_its_default_size():
    report = run_property("semigroup")
    assert (report.status, report.checked_count) == ("pass", 64082)


def test_kron_symmetry_names_the_first_asymmetric_triple(monkeypatch):
    # two ordered triples of size 4 are raised by one; the multiset
    # {(4), 1^4, 1^4} comes first in canonical order, and its two orders
    # with (4) in the middle both read the bumped value
    bumped = {((1, 1, 1, 1), (4,), (1, 1, 1, 1)), ((2, 1, 1), (3, 1), (2, 2))}

    def kron(*trip):
        return kron_char(*trip) + (trip in bumped)

    monkeypatch.setattr(verify, "kron_char", kron)
    reference = _reference_kron_symmetry(4, kron)
    want = _reference_report("kron-symmetry", {"n": 4}, reference)
    assert want.status == "fail" and want.witness["lambda"] == (4,)
    assert want.witness["values"]["mln"] == want.witness["values"]["nlm"] == 2
    got = run_property("kron-symmetry", {"n": 4})
    assert _without_elapsed(got) == _without_elapsed(want)


def test_saxl_names_the_first_vanishing_square(monkeypatch):
    # g(delta_3, delta_3, mu) is lowered to -1 at (3, 2, 1) and to 0 at
    # (4, 1, 1), which comes first: a zero square fails too
    lowered = {(4, 1, 1): 0, (3, 2, 1): -1}

    def square(lam, mu, true=verify._square):
        return lowered.get(mu, true(lam, mu))

    monkeypatch.setattr(verify, "_square", square)
    want = _reference_report("saxl", {"k": 3}, _reference_saxl(3, square))
    assert want.witness == {"staircase": (3, 2, 1), "mu": (4, 1, 1), "value": 0}
    assert _without_elapsed(run_property("saxl", {"k": 3})) == _without_elapsed(want)


def test_char_bound_names_the_first_broken_bound(monkeypatch):
    # |chi^mu| at the principal hooks is raised past g for one mu of each
    # self-conjugate lam of 9; (5, 1, 1, 1, 1), hooks (9,), comes first.  Both
    # mu are not self-conjugate, so no square support reads a raised value
    raised = {((4, 3, 2), (9,)), ((8, 1), (5, 3, 1))}

    def char(mu, hooks, true=verify.character):
        return true(mu, hooks) + 10**6 * ((mu, hooks) in raised)

    monkeypatch.setattr(verify, "character", char)
    want = _reference_report("char-bound", {"n": 9}, _reference_char_bound(9, char))
    assert want.status == "fail"
    assert (want.witness["lambda"], want.witness["mu"]) == ((5, 1, 1, 1, 1), (4, 3, 2))
    got = run_property("char-bound", {"n": 9})
    assert _without_elapsed(got) == _without_elapsed(want)


def test_cauchy_names_the_first_unbalanced_pair(monkeypatch):
    # K((2, 1), (1, 1, 1)) is raised by one, so the Schur side of every
    # degree-3 pair with a weight 1^3 and the other weight not (3) is off;
    # ((2, 1), (1, 1, 1)) is the first of them
    def kost(lam, a, true=verify.kostka):
        return true(lam, a) + ((lam, a) == ((2, 1), (1, 1, 1)))

    monkeypatch.setattr(verify, "kostka", kost)
    want = _reference_report("cauchy", {"max_degree": 4}, _reference_cauchy(4, kost))
    assert want.status == "fail"
    pair = want.witness["row_sums"], want.witness["column_sums"]
    assert pair == ((2, 1), (1, 1, 1))
    got = run_property("cauchy", {"max_degree": 4})
    assert _without_elapsed(got) == _without_elapsed(want)


def count_calls(monkeypatch, *names):
    """Count the calls verify makes to each named function, by name."""
    calls = dict.fromkeys(names, 0)

    def counted(fn_name):
        fn = getattr(verify, fn_name)

        def wrapper(*args, **kwargs):
            calls[fn_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn_name in names:
        monkeypatch.setattr(verify, fn_name, counted(fn_name))
    return calls


@pytest.mark.parametrize(
    "name, n", [("transpose", 6), ("dimension-sum", 6), ("pp20-bound", 7)]
)
def test_table_sweeps_read_one_kron_table(monkeypatch, name, n):
    # pp20-bound reads the table's rows, the others its per-pair vectors
    source = "kron_table" if name == "pp20-bound" else "_pair_vectors"
    calls = count_calls(monkeypatch, "kron_char", source)
    assert run_property(name, {"n": n}).status == "pass"
    assert calls == {"kron_char": 0, source: 1}


def test_char_bound_lists_the_shapes_once(monkeypatch):
    calls = count_calls(monkeypatch, "enumerate_partitions")
    assert run_property("char-bound", {"n": 10}).status == "pass"
    assert calls == {"enumerate_partitions": 1}


def test_murnaghan_pads_each_shape_once_per_size(monkeypatch):
    # max_size 5 pads the shapes of sizes 0..t at n = 2t + 1, t = 1..5
    calls = count_calls(monkeypatch, "pad")
    assert run_property("murnaghan", {"max_size": 5}).status == "pass"
    assert calls == {"pad": 2 + 4 + 7 + 12 + 19}


def test_semigroup_reads_one_kron_table_per_size(monkeypatch):
    # every g, the summed triple's too, comes from the tables of sizes 1..8
    calls = count_calls(monkeypatch, "kron_char", "_pair_vectors")
    assert run_property("semigroup", {"n": 8}).status == "pass"
    assert calls == {"kron_char": 0, "_pair_vectors": 8}


# -- padded triples: one packed dot per lam, one pair product per rectangle ----------


def _reference_murnaghan(max_size, lr=lr_coefficient):
    for total in range(1, max_size + 1):
        n = 2 * total + 1
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    for nu in enumerate_partitions(total - k):
                        g = kron_char(pad(lam, n), pad(mu, n), pad(nu, n))
                        c = lr(lam, mu, nu)
                        yield None if g == c else {
                            "lambda": lam, "mu": mu, "nu": nu, "n": n,
                            "padded": g, "lr": c,
                        }


def _reference_tworow(max_cells, closed_form=kron_tworow):
    for n in range(1, max_cells + 1):
        for d in range(1, max_cells // n + 1):
            for k in range(n * d // 2 + 1):
                lam = (n * d - k, k) if k else (n * d,)
                direct = kron_char(lam, (n,) * d, (n,) * d)
                closed = closed_form(n, d, k)
                yield None if direct == closed else {
                    "n": n, "d": d, "k": k, "character": direct,
                    "closed_form": closed,
                }


PADDED_SWEEPS = {
    "murnaghan": ("max_size", _reference_murnaghan, range(1, 8)),
    "tworow": ("max_cells", _reference_tworow, range(1, 17)),
}


@pytest.mark.parametrize("name", PADDED_SWEEPS)
def test_padded_sweeps_match_the_per_item_reference(name):
    key, reference, sizes = PADDED_SWEEPS[name]
    for size in sizes:
        params = {key: size}
        want = _reference_report(name, params, reference(size))
        assert _without_elapsed(run_property(name, params)) == _without_elapsed(want)


def test_padded_sweeps_name_the_reference_witness(monkeypatch):
    # one LR number and one closed form are raised by one, so each sweep
    # fails and must name the reference's first witness; murnaghan reads
    # c^(2,1)_{(1),(1,1)} from the expansion of s_{(2,1)/(1)}
    def lr(lam, mu, nu):
        return lr_coefficient(lam, mu, nu) + ((lam, mu, nu) == ((2, 1), (1,), (1, 1)))

    def expansion(lam, mu):
        out = dict(skew_schur_expansion(lam, mu))
        if (lam, mu) == ((2, 1), (1,)):
            out[1, 1] = out.get((1, 1), 0) + 1
        return out

    def closed_form(n, d, k):
        return kron_tworow(n, d, k) + ((n, d, k) == (2, 3, 2))

    monkeypatch.setattr(verify, "skew_schur_expansion", expansion)
    monkeypatch.setattr(verify, "kron_tworow", closed_form)
    for name, reference, size in (
        ("murnaghan", _reference_murnaghan(5, lr), 5),
        ("tworow", _reference_tworow(12, closed_form), 12),
    ):
        params = {PADDED_SWEEPS[name][0]: size}
        want = _reference_report(name, params, reference)
        assert want.status == "fail"
        assert _without_elapsed(run_property(name, params)) == _without_elapsed(want)


@pytest.mark.parametrize(
    "name, params, shape_lists",
    [("murnaghan", {"max_size": 5}, 6), ("tworow", {"max_cells": 12}, 0)],
)
def test_padded_sweeps_call_no_kron_char(monkeypatch, name, params, shape_lists):
    # murnaghan lists the shapes of each size 0..max_size once and expands
    # s_{lam/mu} once for each of its 224 pairs (lam, mu); neither sweep
    # calls lr_coefficient, whose every call reaches the core counted here
    names = "kron_char", "kron_table", "enumerate_partitions", "skew_schur_expansion"
    calls = count_calls(monkeypatch, *names)
    lr_calls = []
    core = tableaux._lr_core
    monkeypatch.setattr(tableaux, "_lr_core", lambda *a: lr_calls.append(a) or core(*a))
    assert run_property(name, params).status == "pass"
    pairs = 224 if name == "murnaghan" else 0
    want = dict(zip(names, (0, 0, shape_lists, pairs)))
    assert calls == want
    assert lr_calls == []


def test_murnaghan_takes_one_packed_dot_per_lam(monkeypatch):
    # max_size 5 has 1 + 2 + 3 + 5 + 7 shapes lam; on true characters every
    # dot checks out, so no triple is contracted on its own
    calls = count_calls(monkeypatch, "_contract_pair")
    dots = []
    pack = verify._pack

    def counting(*args):
        dot = pack(*args)
        return lambda x: dots.append(x) or dot(x)

    monkeypatch.setattr(verify, "_pack", counting)
    assert run_property("murnaghan", {"max_size": 5}).status == "pass"
    assert (len(dots), calls) == (18, {"_contract_pair": 0})


def _assert_murnaghan_fails_as_kron_char(monkeypatch, shape, i, entry, message):
    """Set chi^shape of S_5 at class i to entry.  murnaghan at max_size 2 and
    its per-item reference, which calls kron_char in sweep order, must both
    raise message, that of the first padded triple that fails."""
    row = strip_row(shape, 5)
    corrupted = (*row[:i], entry, *row[i + 1:])
    monkeypatch.setitem(characters._rows, (characters._word(shape), 5), corrupted)
    for run in (
        lambda: list(_reference_murnaghan(2)),
        lambda: run_property("murnaghan", {"max_size": 2}),
    ):
        with pytest.raises(InternalConsistencyError) as failure:
            run()
        assert str(failure.value) == message


# at n = 5 murnaghan packs one field per unordered pair {mu, nu}, in sweep
# order: ((), (2)), ((), (1,1)), ((1), (1)), padded to (5), (4,1), (3,2) and
# (3,1,1); S_5's classes are 5, 41, 32, 311, 221, 2111, 1^5


def test_murnaghan_remainder_past_the_first_field(monkeypatch):
    # chi^(3,1,1) with -1 at class (2,2,1), where it is -2, adds 15 to the
    # second field of lam = (2): g((3,2), (5), (3,1,1)) totals 15, not 0
    message = "g((3, 2), (5,), (3, 1, 1)): 15 / 120 leaves remainder 15"
    _assert_murnaghan_fails_as_kron_char(monkeypatch, (3, 1, 1), 4, -1, message)


def test_murnaghan_negative_last_field(monkeypatch):
    # chi^(4,1) with 4 at class (4,1), where it is 0 and chi^(3,2) is -1,
    # takes 30 * 16 from the last field of lam = (2): g((3,2), (4,1), (4,1))
    # totals 120 - 480 = -360, a multiple of 120 but negative, in the top
    # field, where no field above it can show a borrow
    message = "g((3, 2), (4, 1), (4, 1)): -360 / 120 is negative"
    _assert_murnaghan_fails_as_kron_char(monkeypatch, (4, 1), 1, 4, message)
