"""Exact structure constants for symmetric groups and symmetric functions.

Everything is integer arithmetic end to end: characters by
Murnaghan-Nakayama, Kostka numbers by the branching rule,
Littlewood-Richardson numbers by tableau enumeration, Kronecker and reduced
Kronecker coefficients, plethysm, and a harness that machine-checks the
identities the rest of the library leans on.  The curated surface below is
the supported API; everything else is reached through its submodule
(artifact.characters, artifact.kronecker, ...), whose internals may move
without notice.
"""

from .characters import character, character_table
from .kronecker import (
    kron_char,
    kron_schur_oracle,
    kron_table,
    kron_tworow,
    padding_threshold,
    reduced_kron,
)
from .partitions import centralizer_order, dimension_hlf, enumerate_partitions
from .plethysm import pleth_coefficient, pleth_hn_expansion
from .tableaux import lr_coefficient
from .verify import property_names, run_property, search_saturation_counterexample

__all__ = [
    "centralizer_order",
    "character",
    "character_table",
    "dimension_hlf",
    "enumerate_partitions",
    "kron_char",
    "kron_schur_oracle",
    "kron_table",
    "kron_tworow",
    "lr_coefficient",
    "padding_threshold",
    "pleth_coefficient",
    "pleth_hn_expansion",
    "property_names",
    "reduced_kron",
    "run_property",
    "search_saturation_counterexample",
]

