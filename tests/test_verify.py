import json

import pytest

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
    with pytest.raises(ValueError, match="^k=7 exceeds the cap of 6$"):
        run_property("saxl", {"k": 7})


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
        ("semigroup", {"samples": 10}, 10),
        ("murnaghan", {"max_size": 3}, 42),
        ("char-bound", {"n": 9}, 2 * 30),
        ("pp20-bound", {"n": 5}, 84),
        ("foulkes", {"d": 3, "n": 2}, 11),
        ("ip23", {"n": 3}, 6 * 3),
        ("cauchy", {"max_degree": 4, "nvars": 3}, 30),
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


def test_reports_identical_across_workers():
    one = run_property("kron-symmetry", {"n": 5}, jobs=1)
    many = run_property("kron-symmetry", {"n": 5}, jobs=3)
    assert (one.status, one.witness, one.checked_count) == (
        many.status,
        many.witness,
        many.checked_count,
    )


def test_semigroup_sample_is_reproducible():
    first = run_property("semigroup", {"samples": 15})
    second = run_property("semigroup", {"samples": 15})
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
