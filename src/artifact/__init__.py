"""Exact structure constants for symmetric groups and symmetric functions.

Everything is integer arithmetic end to end: characters by
Murnaghan-Nakayama, Kostka numbers by the branching rule,
Littlewood-Richardson numbers by tableau enumeration, Kronecker and reduced
Kronecker coefficients, plethysm, and a harness that machine-checks the
identities the rest of the library leans on.  The curated surface below is
the supported API; module internals may move without notice.
"""

from .characters import (
    CharTable,
    character,
    character_table,
    clear_memo,
    rim_hook_heights,
    set_memo_cap,
)
from .kronecker import (
    InternalConsistencyError,
    kron_char,
    kron_schur_oracle,
    kron_table,
    kron_tworow,
    padding_threshold,
    reduced_kron,
)
from .partitions import (
    SizeMismatchError,
    centralizer_order,
    check_partition,
    class_size,
    conjugate,
    count_bounded,
    dimension_hlf,
    dominance_leq,
    durfee,
    enumerate_partitions,
    format_partition,
    hook_lengths,
    is_self_conjugate,
    pad,
    parse_partition,
    partition_count,
    principal_hooks,
    stretch,
)
from .plethysm import (
    foulkes_violations,
    gl_dimension,
    pleth_coefficient,
    pleth_hn_expansion,
    sym_power_dimension,
)
from .symfunc import (
    SchurVector,
    SymPoly,
    complete_homogeneous,
    schur_in_monomials,
    to_schur_basis,
)
from .tableaux import is_ballot, kostka, lr_coefficient, skew_schur_expansion
from .verify import (
    Report,
    property_names,
    run_property,
    search_saturation_counterexample,
)

__all__ = [
    "CharTable",
    "InternalConsistencyError",
    "Report",
    "SchurVector",
    "SizeMismatchError",
    "SymPoly",
    "centralizer_order",
    "character",
    "character_table",
    "check_partition",
    "class_size",
    "clear_memo",
    "complete_homogeneous",
    "conjugate",
    "count_bounded",
    "dimension_hlf",
    "dominance_leq",
    "durfee",
    "enumerate_partitions",
    "format_partition",
    "foulkes_violations",
    "gl_dimension",
    "hook_lengths",
    "is_ballot",
    "is_self_conjugate",
    "kostka",
    "kron_char",
    "kron_schur_oracle",
    "kron_table",
    "kron_tworow",
    "lr_coefficient",
    "pad",
    "padding_threshold",
    "parse_partition",
    "partition_count",
    "pleth_coefficient",
    "pleth_hn_expansion",
    "principal_hooks",
    "property_names",
    "reduced_kron",
    "rim_hook_heights",
    "run_property",
    "schur_in_monomials",
    "search_saturation_counterexample",
    "set_memo_cap",
    "skew_schur_expansion",
    "stretch",
    "sym_power_dimension",
    "to_schur_basis",
]
