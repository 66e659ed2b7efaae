"""The package namespace: what `from quasikernel import *` exports."""

import quasikernel

PUBLIC = """
    CLAIMS CheckReport Claim ConstructionTrace DEFAULT_LIMITS Digraph
    GraphFormatError HairyPartition Ordering PreconditionError QkError
    ResourceLimitError SolverLimits SplitMix64 StructureError SweepReport
    VerificationError VertexRangeError Violation cl_algorithm closed_in
    closed_out enumerate_all_digraphs enumerate_all_tournaments
    enumerate_kernels enumerate_q_kernels find_king format_graph gen_cycle
    gen_random_digraph gen_random_hairy gen_random_tournament
    gen_random_unicyclic gen_three_hub gen_tight_hairy hairy_small_qk
    has_directed_odd_cycle has_kernel has_two_disjoint_qks induced
    is_independent is_kernel is_kernel_perfect is_large_qk is_q_kernel
    is_quasi_sink is_tournament kls_bound load_graph modified_cl
    ordering_has_symmetric_back_property out_neighbors parse_graph
    q_kernel_at_most random_source_free_family report_emit run_claim
    save_graph shrink_good_qk small_qk_from_kernel_complement
    smallest_q_kernel sources strongly_connected_components transpose
    unicyclic_small_qk
""".split()


def test_all_lists_the_public_names_in_order():
    assert quasikernel.__all__ == PUBLIC
