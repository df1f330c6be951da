"""Layer spans and memo probes for the traced run, taken from outside the library.

The layers are the modules of ``src/artifact``.  ``Tracer.install`` rebinds,
in each layer module, every function imported from another layer to a timing
wrapper, so each call across a module boundary is a span and a call inside
one module is not.  The benchmark's own calls into a layer go through
``Tracer.entry``.  Spans are aggregated per (caller, callee, function) edge
as a count, total time and self time, so the million boundary calls of a
Kronecker table cost a few dict entries.  Self time is a span's duration
minus the time of the spans nested in it.

Nothing here changes library code; a process that never calls ``install``
runs the library untouched.
"""

import importlib
import time

LAYERS = (
    "partitions", "characters", "tableaux", "symfunc",
    "kronecker", "plethysm", "verify", "cli",
)
BENCH = "bench"

# kronecker functions that return Kronecker coefficients; kron_table returns
# one per row of its list.
COEFF_FUNCS = frozenset(
    ("kron_char", "kron_schur_oracle", "kron_tworow", "reduced_kron", "kron_table")
)

# (probe name, module, attribute) of the @cache tables the benchmark reads.
CACHES = (
    ("engine", "kronecker", "_engine_value"),
    ("kostka", "tableaux", "kostka"),
    ("lr", "tableaux", "lr_coefficient"),
    ("skew", "tableaux", "skew_schur_expansion"),
    ("h_pleth", "plethysm", "_h_pleth"),
)


def _layer_of(obj):
    package, _, name = (getattr(obj, "__module__", None) or "").partition(".")
    return name if package == "artifact" and name in LAYERS else None


class Tracer:
    def __init__(self):
        # (caller, callee, name) -> [count, total_s, self_s, coefficients]
        self.edges = {}
        # one slot per open span: time taken by the spans nested in it
        self._nested = [0.0]
        self._entries = {}

    def wrap(self, caller, callee, name, fn):
        stat = self.edges.setdefault((caller, callee, name), [0, 0.0, 0.0, 0])
        nested = self._nested
        clock = time.perf_counter
        coefficients = callee == "kronecker" and name in COEFF_FUNCS

        def span(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                nested[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if coefficients:
                stat[3] += len(result) if isinstance(result, list) else 1
            return result

        return span

    def install(self):
        """Route every cross-module call inside the library through a span."""
        for caller in LAYERS:
            module = importlib.import_module("artifact." + caller)
            for name, obj in list(vars(module).items()):
                callee = _layer_of(obj)
                if (
                    callee not in (None, caller)
                    and callable(obj)
                    and not isinstance(obj, type)
                ):
                    setattr(module, name, self.wrap(caller, callee, name, obj))

    def entry(self, layer, name):
        """A layer's public function, called from the benchmark as a span."""
        if (layer, name) not in self._entries:
            fn = getattr(importlib.import_module("artifact." + layer), name)
            self._entries[layer, name] = self.wrap(BENCH, layer, name, fn)
        return self._entries[layer, name]

    def snapshot(self):
        return [[*edge, *stat] for edge, stat in sorted(self.edges.items())]


def read_tables():
    """Size of the MN memo and hits, misses and size of each @cache table.

    A table a later version of the library drops reads as empty.
    """
    characters = importlib.import_module("artifact.characters")
    out = {"memo_entries": len(getattr(characters, "_memo", ()))}
    for probe, module, attr in CACHES:
        fn = getattr(importlib.import_module("artifact." + module), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[probe] = [info.hits, info.misses, info.currsize] if info else [0, 0, 0]
    return out


def nonempty_tables():
    """Names of the tables above that already hold entries."""
    tables = read_tables()
    full = ["memo"] if tables.pop("memo_entries") else []
    return full + [probe for probe, (_, _, size) in tables.items() if size]


def merge_tables(many):
    out = {"memo_entries": 0, **{probe: [0, 0, 0] for probe, _, _ in CACHES}}
    for tables in many:
        out["memo_entries"] += tables["memo_entries"]
        for probe, _, _ in CACHES:
            out[probe] = [a + b for a, b in zip(out[probe], tables[probe])]
    return out


def layer_metrics(edges, tables):
    """Per-layer counts and self times from merged edges and table probes."""
    out = {}
    for layer in LAYERS:
        into = [e for e in edges if e[1] == layer]
        out[layer + ".calls"] = sum(e[3] for e in into)
        out[layer + ".self_s"] = sum(e[5] for e in into)
    out["characters.memo_entries"] = tables["memo_entries"]
    out["kronecker.coeffs"] = sum(e[6] for e in edges if e[1] == "kronecker")

    def ratio(probe):
        hits, misses, _ = tables[probe]
        return hits / (hits + misses) if hits + misses else 0.0

    out["kronecker.engine_hit_ratio"] = ratio("engine")
    out["tableaux.kostka_hit_ratio"] = ratio("kostka")
    out["tableaux.lr_hit_ratio"] = ratio("lr")
    out["tableaux.skew_hit_ratio"] = ratio("skew")
    out["plethysm.h_pleth_entries"] = tables["h_pleth"][2]
    return out


def merge_edges(many):
    merged = {}
    for edges in many:
        for caller, callee, name, *stat in edges:
            acc = merged.setdefault((caller, callee, name), [0, 0.0, 0.0, 0])
            for i, value in enumerate(stat):
                acc[i] += value
    return [[*edge, *stat] for edge, stat in sorted(merged.items())]
