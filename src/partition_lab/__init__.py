"""Exact combinatorics of integer partitions.

Partition statistics (runs, odd-run counts, k-measures, Durfee and
2-modular Durfee data, alternating index), the classical bijections
between odd and strict partitions, a sign-reversing involution on labeled
pairs, exact truncated q-series with named generating-function builders,
and exhaustive checkers for every identity the library implements.
"""

from .core import (
    Partition,
    k_measure,
    parity_index,
    parse,
    partitions,
    runs,
    sol,
    union,
)
from .maps import (
    LabeledPartition,
    PhiCase,
    SignedPair,
    classify_pair,
    fixed_to_strict,
    glaisher,
    involution_phi,
    involution_table,
    lemma51_compose,
    lemma51_decompose,
    parse_labeled,
    parse_pair,
    strict_to_fixed,
    sylvester,
)
from .qseries import (
    LaurentPoly,
    Monomial,
    MultiSeries,
    build,
    pochhammer,
)
from .shapes import (
    Border,
    DurfeeType,
    ModularDiagram,
    alternating_index,
    dur2,
    dur2_sub,
    durfee_side,
    modular2_diagram,
    sub_durfee_side,
)
from .verify import (
    Counterexample,
    FamilySpec,
    VerificationReport,
    enumerate_family,
    example_sets,
)

__version__ = "0.1.0"
