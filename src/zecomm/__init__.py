"""Exact toolkit for correlation-assisted zero-error coding over noisy
classical channels."""

from .behaviors import (
    Behavior,
    Scenario,
    is_no_signaling,
    make_extremal_box,
    make_jones_box,
    make_local_deterministic,
    make_rtilde_box,
    tensor_behaviors,
    validate_behavior,
)
from .channels import (
    Channel,
    IndexSpace,
    identity_channel,
    make_channel,
    make_mm,
    make_nm,
    pi_perm,
    tensor_channels,
)
from .graphs import (
    ConfusabilityGraph,
    confusability_graph,
    independence_number,
    strong_product,
    zero_error_capacity_oneshot,
)
from .protocols import (
    SKIP,
    AssistedProtocol,
    best_unassisted_success,
    exact_success,
    exhaustive_assisted_search,
    is_zero_error,
    make_theorem2_protocol,
    make_theorem3_protocol,
    monte_carlo_success,
    per_message_success,
    tensor_protocols,
)
from .quantum import (
    QuantumModel,
    behavior_from_quantum,
    make_cglmp_behavior,
    make_i3322_model,
    make_i3322_rational_table,
    make_singlet,
    planar_qubit_projectors,
)

__version__ = "0.1.0"
