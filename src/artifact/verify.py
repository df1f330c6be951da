"""Machine checks for the identities and conjectures the library is built on.

Every named property sweeps an exhaustive (or, for the semigroup spot check,
deterministically sampled) range and returns a Report.  A Report never lies:
"pass" means every instance in the declared range was checked and held;
"fail" carries the first counterexample in canonical order, fully
serialized, so it can be re-verified without rerunning the sweep.  The
saturation search is different in kind — there a positive stretched value is
the sought-after outcome ("counterexample-confirmed" refutes saturation for
reduced coefficients), and running out of budget is recorded as
"inconclusive-within-range" rather than dressed up as a result.

Each property is one Spec in the registry near the end of this module: its
range parameters with their defaults and bounds, a generator of its items
and a check that returns a witness or None.  run_property rejects any
parameter the property does not read and any value that is not an int,
bounds the rest and sweeps the items.  tensor-square and foulkes report
something other than a first witness, so their specs carry a run function
of their own.

Sweeps run serially over their items in canonical order, so status, witness
and checked_count are identical for every run; only elapsed time varies.
"""

import random
import time
from functools import cache
from itertools import combinations_with_replacement as multisets
from itertools import compress
from operator import mul

from .characters import TABLE_LIMIT, char_kernel, character, exact_quotient
from .kronecker import (
    kron_char,
    kron_tworow,
    padding_threshold,
    reduced_kron,
)
from .partitions import (
    add,
    centralizer_order,
    conjugate,
    contingency_tables,
    dimension_hlf,
    enumerate_partitions,
    is_self_conjugate,
    pad,
    principal_hooks,
    stretch,
)
from .plethysm import DEGREE_CAP, foulkes_violations
from .tableaux import kostka, lr_coefficient

SATURATION_SIZE_CAP = 35
SEMIGROUP_SEED = 20260814

PASS = "pass"
FAIL = "fail"
CONFIRMED = "counterexample-confirmed"
INCONCLUSIVE = "inconclusive-within-range"


class Report:
    def __init__(self, property, params, status, witness, checked_count, elapsed):
        self.property = property
        self.params = params
        self.status = status
        self.witness = witness
        self.checked_count = checked_count
        self.elapsed = elapsed

    def to_json(self):
        """Schema-stable dict; every number rendered as a decimal string."""
        return {
            "property": self.property,
            "params": {k: _stringify(v) for k, v in sorted(self.params.items())},
            "status": self.status,
            "witness": _stringify(self.witness),
            "checked_count": str(self.checked_count),
            "elapsed_ms": str(int(self.elapsed * 1000)),
        }


def _stringify(obj):
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _sweep(check, items):
    """Run a witness-or-None check over all items; first witness wins."""
    results = [check(item) for item in items]
    for witness in results:
        if witness is not None:
            return FAIL, witness, len(results)
    return PASS, None, len(results)


def _require(params, key, default, low, high):
    value = params.get(key, default)
    if value < low:
        raise ValueError(f"{key} must be at least {low}")
    if high is not None and value > high:
        raise ValueError(f"{key}={value} exceeds the cap of {high}")
    return value


# -- orthogonality -----------------------------------------------------------------
#
# Columns: sum over shapes of chi(a)*chi(b) is the centralizer order when the
# classes agree, zero otherwise.  Rows: sum over classes of
# |C_a| * chi^lam(a) * chi^mu(a) is n! exactly on the diagonal.


def _check_orthogonality(item):
    kind, n, p, q = item
    kern = char_kernel(n)
    if kind == "col":
        i, j = kern.classes.index(p), kern.classes.index(q)
        total = sum(row[i] * row[j] for row in map(kern.row, kern.classes))
        want = centralizer_order(p) if p == q else 0
    else:
        total = sum(kern.weighted(p, q))
        want = kern.order if p == q else 0
    if total != want:
        return {"kind": kind, "first": p, "second": q, "sum": total, "expected": want}
    return None


def _orthogonality_items(n):
    parts = list(enumerate_partitions(n))
    return [(kind, n, p, q) for kind in ("col", "row") for p in parts for q in parts]


# -- Kronecker symmetries ------------------------------------------------------------
#
# kron-symmetry is a smoke test, not an independent check: all six argument
# orders dot the same three kernel rows, so they agree by construction.


def _check_symmetry(item):
    lam, mu, nu = item
    base = kron_char(lam, mu, nu)
    values = {
        "lmn": base,
        "lnm": kron_char(lam, nu, mu),
        "mln": kron_char(mu, lam, nu),
        "mnl": kron_char(mu, nu, lam),
        "nlm": kron_char(nu, lam, mu),
        "nml": kron_char(nu, mu, lam),
    }
    if len(set(values.values())) != 1:
        return {"lambda": lam, "mu": mu, "nu": nu, "values": values}
    return None


def _check_transpose(item):
    lam, mu, nu = item
    lhs = kron_char(lam, mu, nu)
    rhs = kron_char(conjugate(lam), conjugate(mu), nu)
    if lhs != rhs:
        return {"lambda": lam, "mu": mu, "nu": nu, "plain": lhs, "transposed": rhs}
    return None


def _canonical_triples(n):
    return multisets(enumerate_partitions(n), 3)


def _pair_triples(n):
    """(lam, mu, nu) with lam <= mu canonical and nu free."""
    parts = enumerate_partitions(n)
    return [(lam, mu, nu) for lam, mu in multisets(parts, 2) for nu in parts]


# -- dimension sum -------------------------------------------------------------------


def _check_dimension_sum(item):
    n, lam, mu = item
    kern = char_kernel(n)
    pair = kern.weighted(lam, mu)
    total = 0
    for nu in kern.classes:
        dot = sum(map(mul, pair, kern.row(nu)))
        g = exact_quotient(dot, kern.order, "g(%r, %r, %r)", lam, mu, nu)
        total += dimension_hlf(nu) * g
    want = dimension_hlf(lam) * dimension_hlf(mu)
    if total != want:
        return {"lambda": lam, "mu": mu, "sum": total, "expected": want}
    return None


def _dimension_sum_items(n):
    return [(n, lam, mu) for lam, mu in multisets(enumerate_partitions(n), 2)]


# -- semigroup spot checks ------------------------------------------------------------


def _check_semigroup(item):
    first, second = item
    summed = tuple(add(p, q) for p, q in zip(first, second))
    got = kron_char(*summed)
    lower = max(kron_char(*first), kron_char(*second))
    if got < lower:
        return {
            "first": first,
            "second": second,
            "summed": summed,
            "value": got,
            "lower_bound": lower,
        }
    return None


def _semigroup_items(samples, max_size):
    positives = []
    for n in range(1, max_size + 1):
        for trip in _canonical_triples(n):
            if kron_char(*trip) > 0:
                positives.append(trip)
    rng = random.Random(SEMIGROUP_SEED)
    return [(rng.choice(positives), rng.choice(positives)) for _ in range(samples)]


# -- Murnaghan stability ---------------------------------------------------------------


def _check_murnaghan(item):
    lam, mu, nu, n = item
    g = kron_char(pad(lam, n), pad(mu, n), pad(nu, n))
    c = lr_coefficient(lam, mu, nu)
    if g != c:
        return {"lambda": lam, "mu": mu, "nu": nu, "n": n, "padded": g, "lr": c}
    return None


def _murnaghan_items(max_size):
    items = []
    for total in range(1, max_size + 1):
        n = 2 * total + 1
        for lam in enumerate_partitions(total):
            for k in range(total + 1):
                for mu in enumerate_partitions(k):
                    for nu in enumerate_partitions(total - k):
                        items.append((lam, mu, nu, n))
    return items


# -- two-row closed form ----------------------------------------------------------------


def _check_tworow(item):
    n, d, k = item
    lam = (n * d - k, k) if k else ((n * d,) if n * d else ())
    direct = kron_char(lam, (n,) * d, (n,) * d)
    closed = kron_tworow(n, d, k)
    if direct != closed:
        return {"n": n, "d": d, "k": k, "character": direct, "closed_form": closed}
    return None


def _tworow_items(max_cells):
    return [
        (n, d, k)
        for n in range(1, max_cells + 1)
        for d in range(1, max_cells // n + 1)
        for k in range(n * d // 2 + 1)
    ]


# -- Saxl staircase ----------------------------------------------------------------------


@cache
def _staircase_support(delta):
    """The classes where |C_a| chi^delta(a)^2 is nonzero, and those weights.

    delta is a 2-core (every hook length is odd), so by the MN rule
    chi^delta vanishes on every class with an even part and the support is
    among the odd-part classes: 59 of the 76 odd-part classes of the 792
    at k = 6.
    """
    kern = char_kernel(sum(delta))
    weights = kern.weighted(delta, delta)
    return tuple(compress(kern.classes, weights)), tuple(filter(None, weights))


def _check_saxl(item):
    delta, mu = item
    kern = char_kernel(sum(delta))
    total = kern.contract(mu, *_staircase_support(delta))
    value = exact_quotient(total, kern.order, "g(%r, %r, %r)", delta, delta, mu)
    if value <= 0:
        return {"staircase": delta, "mu": mu, "value": value}
    return None


def _saxl_items(k):
    delta = tuple(range(k, 0, -1))
    return [(delta, mu) for mu in enumerate_partitions(k * (k + 1) // 2)]


# -- tensor squares covering every irreducible ----------------------------------------------


def _check_tensor_square(item):
    n, lam = item
    if not is_self_conjugate(lam):
        return (lam, False, None)
    missing = [
        mu for mu in enumerate_partitions(n) if kron_char(lam, lam, mu) <= 0
    ]
    return (lam, True, missing)


def _run_tensor_square(n):
    items = [(n, lam) for lam in enumerate_partitions(n)]
    results = [_check_tensor_square(item) for item in items]
    working = [lam for lam, selfconj, missing in results if selfconj and not missing]
    candidates = [lam for lam, selfconj, _ in results if selfconj]
    witness = {
        "note": "conjectured for n >= 9; smaller n reported for the record",
        "self_conjugate": candidates,
        "covering": working,
    }
    if n >= 9 and not working:
        return FAIL, witness, len(results)
    return PASS, witness, len(results)


# -- character lower bound -------------------------------------------------------------------


def _check_char_bound(item):
    lam, hooks, mu = item
    g = kron_char(lam, lam, mu)
    bound = abs(character(mu, hooks))
    if g < bound:
        return {
            "lambda": lam,
            "principal_hooks": hooks,
            "mu": mu,
            "value": g,
            "bound": bound,
        }
    return None


def _char_bound_items(n):
    return [
        (lam, principal_hooks(lam), mu)
        for lam in enumerate_partitions(n)
        if is_self_conjugate(lam)
        for mu in enumerate_partitions(n)
    ]


# -- contingency upper bound -----------------------------------------------------------------
#
# g(lam,mu,nu) <= (1 + lmr/n)^n * (1 + n/lmr)^(lmr) with l,m,r the lengths.
# Cross-multiplied to integers:  g * n^n * (lmr)^(lmr) <= (n + lmr)^(n + lmr).


def _check_pp20(item):
    lam, mu, nu = item
    n = sum(lam)
    lmr = len(lam) * len(mu) * len(nu)
    g = kron_char(lam, mu, nu)
    if g * n**n * lmr**lmr > (n + lmr) ** (n + lmr):
        return {"lambda": lam, "mu": mu, "nu": nu, "value": g}
    return None


# -- Foulkes comparison ------------------------------------------------------------------------


def _run_foulkes(d, n, cap):
    violations = foulkes_violations(d, n, cap=cap)
    checked = sum(1 for _ in enumerate_partitions(d * n))
    if violations:
        lam, big, small = violations[0]
        witness = {
            "note": "conjectured inequality failed; witness re-checkable",
            "lambda": lam,
            "outer_d_inner_n": big,
            "outer_n_inner_d": small,
        }
        return FAIL, witness, checked
    return PASS, None, checked


# -- ordinary-to-reduced identity -----------------------------------------------------------------


def _check_ip23(item):
    lam, mu, nu = item
    head = nu[0]
    first = tuple(part + head for part in lam)
    second = tuple(part + head for part in mu)
    third = (head,) * (len(lam) + len(mu)) + nu
    g = kron_char(lam, mu, nu)
    gbar = reduced_kron(first, second, third)
    if g != gbar:
        return {
            "lambda": lam,
            "mu": mu,
            "nu": nu,
            "ordinary": g,
            "reduced_arguments": [first, second, third],
            "reduced": gbar,
        }
    return None


# -- truncated Cauchy identity ----------------------------------------------------------------------
#
# The coefficient of x^a y^b in prod 1/(1 - x_i y_j) counts nonnegative
# integer matrices with row sums a and column sums b; the Schur expansion
# turns that into sum over shapes of K(lam,a) * K(lam,b).


def _matrix_count(rows, cols):
    return sum(1 for _ in contingency_tables(rows, cols))


def _check_cauchy(item):
    nvars, a, b = item
    degree = sum(a)
    lhs = sum(
        kostka(lam, a) * kostka(lam, b)
        for lam in enumerate_partitions(degree, max_len=nvars)
    )
    rows = a + (0,) * (nvars - len(a))
    cols = b + (0,) * (nvars - len(b))
    rhs = _matrix_count(rows, cols)
    if lhs != rhs:
        return {"row_sums": a, "column_sums": b, "schur_side": lhs, "matrix_side": rhs}
    return None


def _cauchy_items(max_degree, nvars):
    items = []
    for degree in range(1, max_degree + 1):
        shapes = [p for p in enumerate_partitions(degree) if len(p) <= nvars]
        items += [(nvars, a, b) for a in shapes for b in shapes]
    return items


# -- registry ------------------------------------------------------------------------------------------


CAP = "cap"


class Spec:
    """One property: its range parameters, its items and its check.

    Each keyword range is key=(default, low, high); high is a fixed cap, None
    for no cap, or CAP for the property's "cap" parameter (default
    TABLE_LIMIT).  items(**values) lists the instances and check(item)
    returns a witness or None; a spec with ``run`` returns (status, witness,
    checked) from run(**values) instead.  ``n_key`` is the range that the
    CLI's generic --n flag sets.
    """

    def __init__(self, items=None, check=None, run=None, n_key="n", **ranges):
        self.items, self.check, self.run, self.n_key = items, check, run, n_key
        self.ranges = ranges
        self.keys = list(ranges)
        if any(high == CAP for _, _, high in ranges.values()):
            self.keys.append("cap")


_PROPERTIES = {
    "orthogonality": Spec(_orthogonality_items, _check_orthogonality, n=(8, 1, CAP)),
    "kron-symmetry": Spec(_canonical_triples, _check_symmetry, n=(5, 1, CAP)),
    "transpose": Spec(_pair_triples, _check_transpose, n=(5, 1, CAP)),
    "dimension-sum": Spec(_dimension_sum_items, _check_dimension_sum, n=(6, 1, CAP)),
    "semigroup": Spec(
        _semigroup_items,
        _check_semigroup,
        n_key="samples",
        samples=(40, 1, None),
        max_size=(5, 1, 6),
    ),
    "murnaghan": Spec(
        _murnaghan_items, _check_murnaghan, n_key="max_size", max_size=(4, 1, 8)
    ),
    "tworow": Spec(
        _tworow_items, _check_tworow, n_key="max_cells", max_cells=(12, 1, 16)
    ),
    "saxl": Spec(_saxl_items, _check_saxl, k=(3, 1, 7)),
    "tensor-square": Spec(run=_run_tensor_square, n=(9, 1, CAP)),
    "char-bound": Spec(_char_bound_items, _check_char_bound, n=(10, 1, CAP)),
    "pp20-bound": Spec(_canonical_triples, _check_pp20, n=(6, 1, CAP)),
    "foulkes": Spec(
        run=_run_foulkes, d=(3, 1, None), n=(2, 1, None), cap=(DEGREE_CAP, 1, None)
    ),
    "ip23": Spec(_pair_triples, _check_ip23, n=(4, 1, 6)),
    "cauchy": Spec(
        _cauchy_items,
        _check_cauchy,
        n_key="max_degree",
        max_degree=(5, 1, 8),
        nvars=(3, 1, 4),
    ),
}


def property_names():
    return sorted(_PROPERTIES)


def _spec(name):
    if name not in _PROPERTIES:
        raise ValueError(
            f"unknown property {name!r}; known: {', '.join(property_names())}"
        )
    return _PROPERTIES[name]


def n_key(name):
    """The parameter of property ``name`` that a generic --n flag sets."""
    return _spec(name).n_key


def run_property(name, params=None):
    """Check one named property exhaustively; returns a deterministic Report.

    Every key of ``params`` must be one the property reads, with an int
    value; anything else raises ValueError.
    """
    spec = _spec(name)
    params = dict(params or {})
    for key, value in params.items():
        if key not in spec.keys:
            keys = ", ".join(spec.keys)
            raise ValueError(f"{name} takes no {key!r}; it takes {keys}")
        if type(value) is not int:
            raise ValueError(f"{key} must be an int, got {value!r}")
    start = time.perf_counter()
    cap = params.get("cap", TABLE_LIMIT)
    values = {
        key: _require(params, key, default, low, cap if high == CAP else high)
        for key, (default, low, high) in spec.ranges.items()
    }
    if spec.run is not None:
        status, witness, checked = spec.run(**values)
    else:
        status, witness, checked = _sweep(spec.check, spec.items(**values))
    return Report(
        property=name,
        params=params,
        status=status,
        witness=witness,
        checked_count=checked,
        elapsed=time.perf_counter() - start,
    )


def search_saturation_counterexample(k, n_max, size_cap=SATURATION_SIZE_CAP):
    """Hunt for a saturation failure in the family (1^(k²-1), 1^(k²-1), k^(k-1)).

    Verifies the base triple has reduced coefficient 0, then stretches every
    part by N = 2..n_max looking for a positive value: finding one confirms
    the counterexample (positivity of a stretch without positivity of the
    base).  Stops with "inconclusive-within-range" if the padding size of
    the next stretch would exceed size_cap — raise the cap to push further.
    The padding size (padding_threshold) serves only as a proxy for the
    size of a stretch: reduced_kron runs the vertical-strip engine, which
    never pads.
    """
    if k < 3:
        raise ValueError("the family needs k >= 3")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    base = ((1,) * (k * k - 1), (1,) * (k * k - 1), (k,) * (k - 1))
    start = time.perf_counter()
    checked = 0
    witness = {"base": base}
    status = INCONCLUSIVE
    for n in range(1, n_max + 1):
        trip = tuple(stretch(p, n) for p in base)
        if padding_threshold(*trip) > size_cap:
            witness["stopped_at_stretch"] = n
            witness["reason"] = "padding size exceeds cap"
            break
        value = reduced_kron(*trip)
        checked += 1
        if n == 1:
            if value != 0:
                status = FAIL
                witness["base_value"] = value
                witness["reason"] = "base triple is already positive"
                break
            witness["base_value"] = 0
        elif value > 0:
            status = CONFIRMED
            witness["stretch"] = n
            witness["stretched"] = trip
            witness["value"] = value
            break
    else:
        witness["reason"] = "no positive stretch within range"
    return Report(
        property="saturation-cex",
        params={"k": k, "n_max": n_max, "size_cap": size_cap},
        status=status,
        witness=witness,
        checked_count=checked,
        elapsed=time.perf_counter() - start,
    )
