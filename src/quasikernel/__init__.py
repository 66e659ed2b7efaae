"""Quasi-kernel toolkit: graph model, greedy scans, exact search, constructions."""

from types import ModuleType as _ModuleType

from .construct import (
    ConstructionTrace,
    HairyPartition,
    find_king,
    hairy_small_qk,
    shrink_good_qk,
    small_qk_from_kernel_complement,
    unicyclic_small_qk,
)
from .digraph import (
    CheckReport,
    Digraph,
    closed_in,
    closed_out,
    has_directed_odd_cycle,
    induced,
    is_independent,
    is_kernel,
    is_large_qk,
    is_q_kernel,
    is_quasi_sink,
    is_tournament,
    out_neighbors,
    sources,
    strongly_connected_components,
    transpose,
)
from .errors import (
    GraphFormatError,
    PreconditionError,
    QkError,
    ResourceLimitError,
    StructureError,
    VerificationError,
    VertexRangeError,
)
from .generators import (
    enumerate_all_digraphs,
    enumerate_all_tournaments,
    gen_cycle,
    gen_random_digraph,
    gen_random_hairy,
    gen_random_tournament,
    gen_random_unicyclic,
    gen_three_hub,
    gen_tight_hairy,
)
from .graphio import format_graph, load_graph, parse_graph, save_graph
from .greedy import (
    Ordering,
    cl_algorithm,
    modified_cl,
    ordering_has_symmetric_back_property,
)
from .rng import SplitMix64
from .solver import (
    DEFAULT_LIMITS,
    SolverLimits,
    enumerate_kernels,
    enumerate_q_kernels,
    has_kernel,
    has_two_disjoint_qks,
    is_kernel_perfect,
    kls_bound,
    q_kernel_at_most,
    smallest_q_kernel,
)
from .sweep import (
    CLAIMS,
    Claim,
    SweepReport,
    Violation,
    random_source_free_family,
    report_emit,
    run_claim,
)

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
