"""entspec: entanglement-spectrum rate bounds, certified truncated time
evolution, and low-rank operator approximation tools."""

from .dynamics import (
    AdiabaticResult,
    DensePropagator,
    RateSample,
    adiabatic_error_bound,
    adiabatic_evolve,
    c_alpha,
    check_unitary_se_growth,
    evolve_dense,
    measure_rate_profile,
)
from .errors import EntspecError
from .agsp_arealaw import (
    AgspOperator,
    AreaLawConstants,
    area_law_constants,
    boundary_adiabatic_experiment,
    build_agsp,
    c_kappa_1,
    c_kappa_2,
    ground_tail_experiment,
    random_gapped_instance,
)
from .lowrank import (
    MergeSeries,
    WidthResult,
    build_merge_series,
    kolmogorov_bounds,
    long_range_decomposition_check,
    merge_error_bound,
    no_go_experiment,
    no_go_lower_bound,
    rank_constrained_identity_fit,
    simplex_moment,
    truncation_error_params,
)
from .models import (
    ChainHamiltonian,
    LocalTerm,
    SaturationDynamics,
    ToyTwoQubit,
    UnboundedDynamics,
    basis_product_state,
    build_ising_projector_interaction,
    build_long_range_ising,
    build_nearest_neighbor_chain,
    build_saturation_dynamics,
    build_swap_interaction,
    build_unbounded_dynamics,
    product_state,
    random_dense_instance,
    random_product_state,
)
from .mps import (
    CompressionRecord,
    MatrixProductState,
    add,
    apply_local_term,
    compress,
    from_dense,
    mps_inner,
    mps_norm,
    product_mps,
    to_dense,
)
from .se_strength import (
    BipartiteOperator,
    SeEstimate,
    best_upper,
    operator_schmidt_upper,
    se_lower_search,
    se_upper_from_decomposition,
)
from .spectra import (
    Cut,
    PureState,
    SchmidtSpectrum,
    renyi_entropy,
    schmidt_decompose,
)
from .tdmrg import (
    TdmrgCertificate,
    TdmrgConfig,
    certificate_theory_bound,
    default_step_count,
    gibbs_tail_experiment,
    naive_error_bound,
    normalized_final_error_bound,
    state_mps_existence_check,
    tdmrg_run,
)

__version__ = "0.1.0"
