"""Multi-indexed little q-Jacobi and little q-Laguerre polynomials, exactly.

Casoratian-based isospectral deformations of the two semi-infinite lattice
systems, with every identity (eigen-equations, shape invariance, shift
relations, normalizations, orthogonality, zero interlacing, limits) checked
in exact rational arithmetic.
"""
from .base import (
    CType,
    Family,
    Params,
    ParamsLike,
    RawParams,
    backward_shift_apply,
    casoratian_gauge,
    eigen_at_infinity,
    eigen_leading,
    eigenpoly,
    eigenpoly_y,
    energy,
    forward_shift_apply,
    groundstate_sq,
    hamiltonian_apply,
    norm_ratio,
    potential_b,
    potential_d,
    tilde_delta,
    twist,
)
from .darboux import (
    DeformedPotentials,
    IndexSet,
    deformed_backward_check,
    deformed_eigencheck,
    deformed_forward_check,
    deformed_identities,
    deformed_measure,
    deformed_norm_sq,
    deformed_potentials,
    denominator_leading,
    denominator_poly,
    denominator_poly_y,
    infinity_values,
    level_op,
    level_poly,
    level_poly_y,
    lowest_matches_denominator,
    multi_indexed_leading,
    multi_indexed_poly,
    multi_indexed_poly_y,
    typeI_eigen_numerator,
    typeI_single_poly,
    typeII_single_poly,
    xi_casoratian,
)
from .exact import (
    DegenerateCasoratianError,
    DenominatorZeroAtIntegerError,
    EtaPoly,
    ExactError,
    InvalidParamsError,
    LaurentPoly,
    NegativePowersError,
    NonConvergenceError,
    NonExactDivisionError,
    RootFindingFailureError,
    det_laurent,
    qhyper_terminating,
    qhyper_terms,
    qpoch,
)
from .virtual import (
    VirtualData,
    groundstate_ratio,
    nu_ratio_poly,
    virtual_data,
    virtual_energy,
    virtual_energy_prime,
    virtual_groundstate_sq,
    virtual_poly_y,
    xi_at_infinity,
    xi_diffeq_residual,
    xi_leading,
    xi_series_value,
)

__version__ = "0.1.0"
