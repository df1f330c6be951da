"""Machine checks for the identities and conjectures the library is built on.

Every named property sweeps an exhaustive range and returns a Report.  A
Report never lies: "pass" means every instance in the declared range was
checked and held; "fail" carries the first counterexample in canonical
order, fully serialized, so it can be re-verified without rerunning the
sweep.  The saturation search is different in kind — there a positive
stretched value is the sought-after outcome ("counterexample-confirmed"
refutes saturation for reduced coefficients), and running out of budget is
recorded as "inconclusive-within-range" rather than dressed up as a result.

Each property is one Spec in the registry near the end of this module: its
range parameters with their defaults and bounds, and a run function.  A
sweep is one generator that yields, for each instance in canonical order,
its witness or None; _sweep makes it a run function that counts every
instance and reports the first witness.  tensor-square and foulkes report
something other than a first witness, so they have run functions of their
own, as has the saturation search (_saturation), which returns at each of
its outcomes.  run_property rejects any parameter the property does not
read and any value that is not an int, and bounds the rest; _report times
the run function and makes the Report, the one for every property and the
search alike.

Sweeps run serially over their instances in canonical order, so status, witness
and checked_count are identical for every run; only elapsed time varies.
A sweep that reads g on every triple of one size (transpose, dimension-sum,
pp20-bound, ip23) reads one table of them, semigroup one per size.
pp20-bound reads kron_table's canonical triples.  The others read the
per-pair vectors over nu of kronecker._pair_vectors (_kron_lookup), one
packed dot per conjugation orbit of pairs, with no index sort or dict
probe.  transpose checks each vector against a plain dot of the conjugate
pair, computed without the symmetry, over point-route rows.  tworow dots
one pair product per rectangle with each chi^lam in kron_char's own step,
kronecker._contract_pair.  murnaghan packs the products chi^mu chi^nu of
one size, one per unordered pair, with kronecker._pack and takes one dot
per lam, redoing a lam whose dot fails the exact division through
_contract_pair; it reads every c^lam_{mu,nu} of a pair from one skew
expansion.  Only kron-symmetry calls kron_char.

Work fixed per sweep is done once per sweep, not per instance: orthogonality
dots each left vector with every right vector at once (kronecker._pack, as
kron_table does, but dividing by 1, not n!); murnaghan pads each shape,
fetches its row and packs its products once per size; pp20-bound works out
its bound once per length product; char-bound takes the principal hooks
once per lam.  Nothing is kept between sweeps beyond the library's own memos.
"""

import time
from functools import cache
from itertools import combinations_with_replacement as multisets
from itertools import permutations, product
from math import factorial
from operator import mul

from .characters import (
    TABLE_LIMIT,
    ClassSum,
    _mn,
    _word,
    character,
    conjugacy_classes,
    exact_quotient,
    strip_row,
)
from .kronecker import (
    _contract_pair,
    _pack,
    _pair_dot,
    _pair_vectors,
    kron_char,
    kron_table,
    kron_tworow,
    padding_threshold,
    reduced_kron,
)
from .partitions import (
    _require_int,
    add,
    centralizer_order,
    conjugate,
    contingency_tables,
    count_bounded,
    dimension_hlf,
    enumerate_partitions,
    hook_lengths,
    is_self_conjugate,
    pad,
    principal_hooks,
    stretch,
)
from .plethysm import DEGREE_CAP, foulkes_violations
from .tableaux import kostka, skew_schur_expansion

SATURATION_SIZE_CAP = 35
# cauchy truncates to CAUCHY_NVARS variables
CAUCHY_NVARS = 3

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


def _sweep(witnesses):
    """The run function of a witness generator: the first witness wins."""

    def run(**values):
        found = list(witnesses(**values))
        first = next(filter(None, found), None)
        return (PASS if first is None else FAIL), first, len(found)

    return run


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


def _orthogonality(n):
    """Every column pair, then every row pair, checked against its dot.

    The rows are transposed once and |C_a| * chi^lam(a) is formed once per
    shape.  The right vectors of each half are packed one int per coordinate
    (kronecker._pack), so each left vector takes one dot that gives its dot
    with every right vector: 2 p(n) dots for the 2 p(n)^2 checks.  The bound
    p(n) * max|left| * max|right| is read from the vectors themselves, so no
    field carries even on a corrupted row.  The dot divides by 1, so it
    returns None only when some total is negative; that left vector is then
    dotted plainly, and its witnesses keep their signed sums.
    """
    classes, sizes = conjugacy_classes(n)
    rows = [strip_row(lam, n) for lam in classes]
    columns = list(zip(*rows))
    weighted = [tuple(map(mul, sizes, row)) for row in rows]
    halves = (
        ("col", columns, columns, centralizer_order),
        ("row", weighted, rows, lambda lam: factorial(n)),
    )
    for kind, left, right, diagonal in halves:
        most = [max(abs(x) for v in half for x in v) for half in (left, right)]
        dot = _pack(right, 1, len(classes) * most[0] * most[1])
        for p, x in zip(classes, left):
            totals = dot(x) or [sum(map(mul, x, y)) for y in right]
            for q, total in zip(classes, totals):
                want = diagonal(p) if p == q else 0
                yield None if total == want else {
                    "kind": kind, "first": p, "second": q,
                    "sum": total, "expected": want,
                }


# -- every g of one size -------------------------------------------------------------
#
# kron_table(n) and _pair_vectors(n) divide each g by n! exactly; the table
# lists the canonical triples in multisets(range(p(n)), 3) order.  The sweep's
# own range bounds n, so kron_table takes limit=n.


def _kron_lookup(n):
    """parts, {shape: i}, and g[i][j]: g(parts[i], parts[j], nu) per nu."""
    parts = conjugacy_classes(n)[0]
    return parts, {shape: i for i, shape in enumerate(parts)}, _pair_vectors(n)


# -- Kronecker symmetries ------------------------------------------------------------
#
# kron-symmetry is kron_char's smoke test, not an independent check: all six
# argument orders dot the same three character rows, so they agree by construction.


def _kron_symmetry(n):
    for lam, mu, nu in multisets(enumerate_partitions(n), 3):
        values = {
            "lmn": kron_char(lam, mu, nu),
            "lnm": kron_char(lam, nu, mu),
            "mln": kron_char(mu, lam, nu),
            "mnl": kron_char(mu, nu, lam),
            "nlm": kron_char(nu, lam, mu),
            "nml": kron_char(nu, mu, lam),
        }
        yield None if len(set(values.values())) == 1 else {
            "lambda": lam, "mu": mu, "nu": nu, "values": values
        }


def _transpose(n):
    """g(lam, mu, nu) against g(lam', mu', nu), lam <= mu, nu free.

    _pair_vectors reads the vector of (lam', mu') off the dot of (lam, mu)
    by this very identity, so only the left side comes from _kron_lookup.
    The right side is the independent one: a plain packed dot of chi^lam'
    and chi^mu' (kronecker._pair_dot), divided exactly, over rows taken
    value by value from the point route (characters._mn), not from the dense
    rows, which strip_row may read as sgn chi^lam for chi^lam'.
    """
    parts, index, g = _kron_lookup(n)
    dot = _pair_dot(n, [[_mn(w, alpha) for alpha in parts] for w in map(_word, parts)])
    bar = [index[conjugate(p)] for p in parts]
    for i, j in multisets(range(len(parts)), 2):
        for nu, lhs, rhs in zip(parts, g[i][j], dot(bar[i], bar[j])):
            yield None if lhs == rhs else {
                "lambda": parts[i], "mu": parts[j], "nu": nu,
                "plain": lhs, "transposed": rhs,
            }


# -- dimension sum -------------------------------------------------------------------


def _dimension_sum(n):
    """sum over nu of dim(nu) g(lam, mu, nu) against dim(lam) dim(mu)."""
    parts, _, g = _kron_lookup(n)
    dims = [dimension_hlf(p) for p in parts]
    for i, j in multisets(range(len(parts)), 2):
        total = sum(map(mul, dims, g[i][j]))
        want = dims[i] * dims[j]
        yield None if total == want else {
            "lambda": parts[i], "mu": parts[j], "sum": total, "expected": want
        }


# -- semigroup -------------------------------------------------------------------------


def _semigroup(n):
    """g(first + second) >= max(g(first), g(second)), the inequality checked.

    first is each positive canonical triple of size a, in multisets order,
    second each distinct ordering of each one of size b, in table order, for
    1 <= a <= b <= n - a.  Every g is read from _kron_lookup, once per size.
    """

    @cache
    def table(m):
        parts, index, g = _kron_lookup(m)
        positives = [
            ((parts[i], parts[j], parts[k]), g[i][j][k])
            for i, j, k in multisets(range(len(parts)), 3) if g[i][j][k] > 0
        ]
        return index, g, positives

    for a in range(1, n // 2 + 1):
        for b in range(a, n - a + 1):
            index, g, _ = table(a + b)
            for (first, g1), (triple, g2) in product(table(a)[2], table(b)[2]):
                lower = max(g1, g2)
                for second in dict.fromkeys(permutations(triple)):
                    summed = tuple(map(add, first, second))
                    i, j, k = map(index.get, summed)
                    got = g[i][j][k]
                    yield None if got >= lower else {
                        "first": first, "second": second, "summed": summed,
                        "value": got, "lower_bound": lower,
                    }


# -- padded triples: Murnaghan stability and the two-row closed form ----------------------
#
# murnaghan packs the products chi^mu chi^nu of one size (kronecker._pack) and
# dots |C| chi^lam with them once per lam; tworow forms |C| chi^rect chi^rect
# once per rectangle and dots it with each two-row chi^lam.


def _murnaghan(max_size):
    """g(lam[n], mu[n], nu[n]) against c^lam_{mu,nu}; |mu| + |nu| = |lam| = (n - 1) / 2.

    Each shape of size at most (n - 1) / 2 is padded and its row fetched
    once per n.  The products chi^mu chi^nu of the pairs with |mu| + |nu|
    = (n - 1) / 2 are packed once per n, one field per unordered pair,
    since (mu, nu) and (nu, mu) have one product, with the bound n! M^3 of
    kronecker._pair_dot, so one dot of |C| chi^lam gives, and checks,
    every g of lam.  If it fails, lam's triples are redone in sweep order
    through _contract_pair, which raises at the first failing one.
    The expansion of s_{lam/mu} holds c^lam_{mu,nu} for every nu, so one
    LR search serves a whole (lam, mu).
    """
    shapes = [enumerate_partitions(k) for k in range(max_size + 1)]
    for total in range(1, max_size + 1):
        n = 2 * total + 1
        sizes = conjugacy_classes(n)[1]
        padded = {p: pad(p, n) for k in range(total + 1) for p in shapes[k]}
        rows = {p: strip_row(big, n) for p, big in padded.items()}
        groups = [(mu, shapes[total - k]) for k in range(total + 1) for mu in shapes[k]]
        fields = {}
        reads = [
            fields.setdefault(min((mu, nu), (nu, mu)), len(fields))
            for mu, nus in groups for nu in nus
        ]
        products = [tuple(map(mul, rows[mu], rows[nu])) for mu, nu in fields]
        most = max(max(map(abs, row)) for row in rows.values())
        dot = _pack(products, factorial(n), most**3)
        for lam in shapes[total]:
            weighted = tuple(map(mul, sizes, rows[lam]))
            values = dot(weighted)
            if values is not None:
                values = [values[i] for i in reads]
            else:
                values = []
                for mu, nus in groups:
                    pair = tuple(map(mul, weighted, rows[mu]))
                    for nu in nus:
                        big = padded[lam], padded[mu], padded[nu]
                        values.append(_contract_pair(pair, rows[nu], *big))
            values = iter(values)
            for mu, nus in groups:
                expansion = skew_schur_expansion(lam, mu)
                for nu, g in zip(nus, values):
                    c = expansion.get(nu, 0)
                    yield None if g == c else {
                        "lambda": lam, "mu": mu, "nu": nu,
                        "n": n, "padded": g, "lr": c,
                    }


def _tworow(max_cells):
    """g((nd - k, k), n^d, n^d) against kron_tworow: one pair product per n^d."""
    for n in range(1, max_cells + 1):
        for d in range(1, max_cells // n + 1):
            rect, size = (n,) * d, n * d
            row = strip_row(rect, size)
            pair = tuple(map(mul, conjugacy_classes(size)[1], map(mul, row, row)))
            for k in range(size // 2 + 1):
                lam = (size - k, k) if k else (size,)
                direct = _contract_pair(pair, strip_row(lam, size), lam, rect, rect)
                closed = kron_tworow(n, d, k)
                yield None if direct == closed else {
                    "n": n, "d": d, "k": k, "character": direct, "closed_form": closed
                }


# -- squares g(lam, lam, mu): Saxl, tensor squares, character bound ----------------------------


@cache
def _square_support(lam):
    """The ClassSum of |C_a| chi^lam(a)^2 over the classes where it is nonzero.

    The classes and their sizes come from conjugacy_classes.  By the MN rule
    chi^lam vanishes on every class with a part that is not a hook length of
    lam, so only the classes of hook-length parts are evaluated: 62 of the
    792 at k = 6 for a staircase, 59 of them nonzero.
    """
    hooks = {h for row in hook_lengths(lam) for h in row}
    return ClassSum({
        a: size * character(lam, a) ** 2
        for a, size in zip(*conjugacy_classes(sum(lam)))
        if hooks.issuperset(a)
    })


def _square(lam, mu):
    """g(lam, lam, mu): one contraction of lam's support, divided by n! exactly."""
    total = _square_support(lam).contract(mu)
    return exact_quotient(total, factorial(sum(lam)), "g(%r, %r, %r)", lam, lam, mu)


def _saxl(k):
    delta = tuple(range(k, 0, -1))
    for mu in enumerate_partitions(k * (k + 1) // 2):
        value = _square(delta, mu)
        yield None if value > 0 else {"staircase": delta, "mu": mu, "value": value}


def _run_tensor_square(n):
    """The self-conjugate lam of n whose tensor square contains every chi^mu.

    Searching only self-conjugate lam loses nothing: g(lam, lam, 1^n) is
    <chi^lam, chi^lam'>, which is 1 when lam = lam' and 0 otherwise, so no
    other lam covers the sign character.  checked_count is p(n), every lam.
    """
    shapes = enumerate_partitions(n)
    candidates = [lam for lam in shapes if is_self_conjugate(lam)]
    working = [
        lam for lam in candidates if all(_square(lam, mu) > 0 for mu in shapes)
    ]
    witness = {
        "note": "conjectured for n >= 9; smaller n reported for the record",
        "self_conjugate": candidates,
        "covering": working,
    }
    status = FAIL if n >= 9 and not working else PASS
    return status, witness, len(shapes)


def _char_bound(n):
    """g(lam, lam, mu) >= |chi^mu(principal hooks of lam)|, lam self-conjugate."""
    shapes = enumerate_partitions(n)
    for lam in filter(is_self_conjugate, shapes):
        hooks = principal_hooks(lam)
        for mu in shapes:
            g, bound = _square(lam, mu), abs(character(mu, hooks))
            yield None if g >= bound else {
                "lambda": lam,
                "principal_hooks": hooks,
                "mu": mu,
                "value": g,
                "bound": bound,
            }


# -- contingency upper bound -----------------------------------------------------------------
#
# g(lam,mu,nu) <= (1 + lmr/n)^n * (1 + n/lmr)^(lmr) with l,m,r the lengths.
# Cross-multiplied to integers:  g * n^n * (lmr)^(lmr) <= (n + lmr)^(n + lmr),
# which for an integer g is g <= (n + lmr)^(n + lmr) // (n^n * lmr^lmr).


def _pp20(n):
    """Each canonical triple's g against the largest g the bound allows.

    The bound depends on the triple only through lmr, so it is computed once
    per length product of the sweep.
    """
    most = {}
    for lam, mu, nu, g in kron_table(n, limit=n):
        lmr = len(lam) * len(mu) * len(nu)
        if lmr not in most:
            most[lmr] = (n + lmr) ** (n + lmr) // (n**n * lmr**lmr)
        yield None if g <= most[lmr] else {
            "lambda": lam, "mu": mu, "nu": nu, "value": g
        }


# -- Foulkes comparison ------------------------------------------------------------------------


def _run_foulkes(d, n, cap):
    violations = foulkes_violations(d, n, cap=cap)
    checked = count_bounded(d * n, d * n, d * n)
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


def _ip23(n):
    parts, _, g = _kron_lookup(n)
    for i, j in multisets(range(len(parts)), 2):
        lam, mu = parts[i], parts[j]
        for nu, value in zip(parts, g[i][j]):
            head = nu[0]
            first = tuple(part + head for part in lam)
            second = tuple(part + head for part in mu)
            third = (head,) * (len(lam) + len(mu)) + nu
            gbar = reduced_kron(first, second, third)
            yield None if value == gbar else {
                "lambda": lam, "mu": mu, "nu": nu, "ordinary": value,
                "reduced_arguments": [first, second, third], "reduced": gbar,
            }


# -- truncated Cauchy identity ----------------------------------------------------------------------
#
# The coefficient of x^a y^b in prod 1/(1 - x_i y_j) counts nonnegative
# integer matrices with row sums a and column sums b; the Schur expansion
# turns that into sum over shapes of K(lam,a) * K(lam,b).


def _matrix_count(rows, cols):
    return sum(1 for _ in contingency_tables(rows, cols))


def _cauchy(max_degree):
    """Each pair of weights a, b of one degree; the shapes lam are the weights."""
    for degree in range(1, max_degree + 1):
        shapes = enumerate_partitions(degree, max_len=CAUCHY_NVARS)
        sums = [p + (0,) * (CAUCHY_NVARS - len(p)) for p in shapes]
        for a, rows in zip(shapes, sums):
            for b, cols in zip(shapes, sums):
                lhs = sum(kostka(lam, a) * kostka(lam, b) for lam in shapes)
                rhs = _matrix_count(rows, cols)
                yield None if lhs == rhs else {
                    "row_sums": a, "column_sums": b,
                    "schur_side": lhs, "matrix_side": rhs,
                }


# -- registry ------------------------------------------------------------------------------------------


CAP = "cap"


class Spec:
    """One property: its run function and its range parameters.

    run(**values) returns (status, witness, checked); a sweep's run is
    _sweep of its witness generator.  Each keyword range is
    key=(default, low, high); high is a fixed cap, None for no cap, or CAP
    for the property's "cap" parameter (default TABLE_LIMIT).  ``n_key`` is
    the range that the CLI's generic --n flag sets.
    """

    def __init__(self, run, n_key="n", **ranges):
        self.run, self.n_key, self.ranges = run, n_key, ranges
        self.keys = list(ranges)
        if any(high == CAP for _, _, high in ranges.values()):
            self.keys.append("cap")


_PROPERTIES = {
    "orthogonality": Spec(_sweep(_orthogonality), n=(8, 1, CAP)),
    "kron-symmetry": Spec(_sweep(_kron_symmetry), n=(5, 1, CAP)),
    "transpose": Spec(_sweep(_transpose), n=(5, 1, CAP)),
    "dimension-sum": Spec(_sweep(_dimension_sum), n=(6, 1, CAP)),
    "semigroup": Spec(_sweep(_semigroup), n=(10, 1, 11)),
    "murnaghan": Spec(_sweep(_murnaghan), n_key="max_size", max_size=(4, 1, 8)),
    "tworow": Spec(_sweep(_tworow), n_key="max_cells", max_cells=(12, 1, 16)),
    "saxl": Spec(_sweep(_saxl), k=(3, 1, 8)),
    "tensor-square": Spec(_run_tensor_square, n=(9, 1, CAP)),
    "char-bound": Spec(_sweep(_char_bound), n=(10, 1, CAP)),
    "pp20-bound": Spec(_sweep(_pp20), n=(6, 1, CAP)),
    "foulkes": Spec(
        _run_foulkes, d=(3, 1, None), n=(2, 1, None), cap=(DEGREE_CAP, 1, None)
    ),
    "ip23": Spec(_sweep(_ip23), n=(4, 1, 6)),
    "cauchy": Spec(_sweep(_cauchy), n_key="max_degree", max_degree=(5, 1, 8)),
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
        _require_int(key, value)
    cap = params.get("cap", TABLE_LIMIT)
    values = {
        key: _require(params, key, default, low, cap if high == CAP else high)
        for key, (default, low, high) in spec.ranges.items()
    }
    return _report(name, params, spec.run, values)


def _report(name, params, run, values):
    """The Report of run(**values), timed; params are the parameters as given."""
    start = time.perf_counter()
    status, witness, checked = run(**values)
    elapsed = time.perf_counter() - start
    return Report(name, params, status, witness, checked, elapsed)


def search_saturation_counterexample(k=3, n_max=4, size_cap=SATURATION_SIZE_CAP):
    """Hunt for a saturation failure in the family (1^(k²-1), 1^(k²-1), k^(k-1)).

    Verifies the base triple has reduced coefficient 0, then stretches every
    part by N = 2..n_max looking for a positive value: finding one confirms
    the counterexample (positivity of a stretch without positivity of the
    base).  Stops with "inconclusive-within-range" if the padding size of
    the next stretch would exceed size_cap — raise the cap to push further.
    The padding size (padding_threshold) serves only as a proxy for the
    size of a stretch: reduced_kron runs the vertical-strip engine, which
    never pads.  k, n_max and size_cap must be ints, as in run_property.
    """
    for key, value in (("k", k), ("n_max", n_max), ("size_cap", size_cap)):
        _require_int(key, value)
    if k < 3:
        raise ValueError("the family needs k >= 3")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    params = {"k": k, "n_max": n_max, "size_cap": size_cap}
    return _report("saturation-cex", params, _saturation, params)


def _saturation(k, n_max, size_cap):
    """The run function of the saturation search; checked counts reduced_kron calls."""
    base = ((1,) * (k * k - 1), (1,) * (k * k - 1), (k,) * (k - 1))
    witness = {"base": base}
    for n in range(1, n_max + 1):
        trip = tuple(stretch(p, n) for p in base)
        if padding_threshold(*trip) > size_cap:
            witness.update(stopped_at_stretch=n, reason="padding size exceeds cap")
            return INCONCLUSIVE, witness, n - 1
        value = reduced_kron(*trip)
        if n == 1:
            witness["base_value"] = value
            if value:
                witness["reason"] = "base triple is already positive"
                return FAIL, witness, 1
        elif value > 0:
            witness.update(stretch=n, stretched=trip, value=value)
            return CONFIRMED, witness, n
    witness["reason"] = "no positive stretch within range"
    return INCONCLUSIVE, witness, n_max
