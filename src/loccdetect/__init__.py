"""Toolkit for testing a known bipartite pure state with local measurements.

Builds the one-way and two-way local detection measurements for a
Schmidt-form pure state, computes their exact worst-case error against
overlap-constrained alternatives together with all closed-form upper and
lower bounds, verifies the multi-copy rate limits, and simulates the
protocols shot by shot.
"""

__version__ = "0.1.0"

from .analysis import (
    AdversaryResult,
    ErrorReport,
    VerdictWithMargin,
    error_report,
    prior_weighted_worst_case,
    verify_blind_spot_bound,
    verify_ppt_trace_bound,
    worst_case_value,
)
from .asymptotics import (
    ChernoffResult,
    RateTable,
    classical_chernoff,
    counterexample_check,
    counterexample_rates,
    cross_validate_small_n,
    figure1_data,
    figure2_data,
    rate_table,
)
from .errors import (
    ContractError,
    NumericalFailureError,
    SizeCapError,
    ValidationError,
)
from .measurements import (
    NamedMeasurement,
    build_measurement,
    build_q0,
)
from .operators import (
    BipartiteOperator,
    ValidationVerdict,
    partial_transpose,
    read_operator,
    validate_povm_element,
    write_operator,
)
from .simulator import ShotConfig, SimResult, make_sigma, simulate
from .states import (
    PureState,
    SchmidtSpectrum,
    make_spectrum,
    schmidt_state,
    tensor_power_spectrum,
    uniform_spectrum,
)
from .twirl import (
    ABDecomposition,
    ab_decompose,
    random_phi_symmetric_ppt,
    twirl_defect,
    twirl_discrete,
    twirl_entrywise,
)
