"""Compatible Witt-Artin decompositions in exact rational arithmetic."""

from .exactlin import (
    BilinearForm,
    Matrix,
    Subspace,
    gram_on,
    intersect,
    is_direct_sum,
    kernel,
    orth_complement,
    sum_spaces,
)
from .liecore import (
    InnerProduct,
    LieAlgebra,
    chu_form,
    h_alpha,
    h_perp_mu,
    killing_form,
    stabilizer_of_momentum,
)
from .splitting import (
    ProblemInstance,
    SliceRep,
    SplittingChain,
    build_chain,
    dim_formulas,
    validate,
)
from .pointmodel import (
    TangentModel,
    build_model,
    dphi_G,
    dphi_H,
    inf_action,
)
from .decomposition import (
    WittDecompositionG,
    WittDecompositionH,
    coadjoint_slice_check,
    decompose_G,
    decompose_H,
    slice_form,
    slice_momentum,
    slice_momentum_forms,
)
from .tube import (
    TubePoint,
    check_dphi_consistency,
    omega_tube,
    phi_equivariance_check,
    phi_tilde,
)

__version__ = "0.1.0"
