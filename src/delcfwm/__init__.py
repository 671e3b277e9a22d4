"""Simulator and analysis toolkit for cascaded four-wave-mixing multipartite
entanglement: Gaussian output states, Duan/PPT criteria over all bipartitions,
and dressed atomic-coherence spectra with their coherent channels."""

from .coherence import (
    AtomicParams,
    CoherentChannel,
    DressingCase,
    Peak,
    ResonanceError,
    analytic_resonances,
    channel_capacity,
    criteria_profile,
    deviation_quadruple,
    deviation_tuple,
    find_peaks,
    gain_profile,
    rho3_denominator,
    rho3_dressed,
    rho3_numerator,
    rho3_undressed,
)
from .criteria import (
    DUAN_BOUND,
    Criterion,
    CriterionError,
    GridAxis,
    Sweep,
    classify_tri_region,
    duan_quad_closed_grid,
    duan_tri_closed_grid,
    evaluate_criterion,
    parse_criterion,
    sweep_criteria,
)
from .fock import (
    TruncatedState,
    TruncationError,
    covariance_from_state,
    evolve_tms,
    mean_photon_number,
    vacuum_state,
)
from .gaussian import (
    evolve_cm,
    is_symplectic,
    reduced_cm,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum_cm,
)
from .model import (
    GainSet,
    PumpingParams,
    build_quad_transform,
    build_tri_transform,
    conjugate_gain,
    gain_from_interaction,
    output_cm,
    quad_transform_batch,
    tri_transform_batch,
    two_mode_squeezer,
)

__version__ = "0.1.0"
