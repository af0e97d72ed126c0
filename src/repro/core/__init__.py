"""The paper's protocols: Algorithm 1 (EMD) and the Gap Guarantee family."""

from .emd_protocol import EMDProtocol, EMDResult
from .emd_scaled import ScaledEMDProtocol, ScaledEMDResult
from .gap_lowdim import low_dim_entries, low_dimensional_gap_protocol
from .gap_protocol import GapProtocol, GapResult, verify_gap_guarantee
from .index_lower_bound import (
    IndexInstance,
    greedy_binary_code,
    make_index_instance,
    one_round_subset_protocol,
    required_dimension,
    solve_index_via_gap,
)
from .multiparty import (
    MultiPartyGapResult,
    Topology,
    multi_party_gap,
    verify_multi_party_guarantee,
)
from .params import EMDParameters, default_distance_bounds, derive_emd_parameters
from .repair import repair_point_set

__all__ = [
    "EMDProtocol",
    "EMDResult",
    "ScaledEMDProtocol",
    "ScaledEMDResult",
    "low_dim_entries",
    "low_dimensional_gap_protocol",
    "GapProtocol",
    "GapResult",
    "verify_gap_guarantee",
    "IndexInstance",
    "greedy_binary_code",
    "make_index_instance",
    "one_round_subset_protocol",
    "required_dimension",
    "solve_index_via_gap",
    "MultiPartyGapResult",
    "Topology",
    "multi_party_gap",
    "verify_multi_party_guarantee",
    "EMDParameters",
    "default_distance_bounds",
    "derive_emd_parameters",
    "repair_point_set",
]
