"""Correlation measures of voltage-biased free fermions with an impurity.

Exact correlation-matrix numerics (entropies, mutual information,
fermionic and Renyi negativities), the closed-form volume-law plus
logarithmic asymptotics of those measures, and a Fisher-Hartwig Toeplitz
determinant engine that cross-validates the two.
"""

from .asymptotics import (
    AsymptoticPrediction,
    negativity_asym_symmetric,
    q_fun,
    q_n,
    q_tilde_fun,
    q_tilde_n,
    renyi_mi_asym,
    single_interval_entropy_asym,
    vn_mi_asym,
)
from .correlation import (
    CorrelationMatrix,
    build_corr_matrix,
    corr_entry_full,
)
from .densela import gen_eigvals, herm_eigvals, lu_logdet
from .measures import (
    MeasureResult,
    build_c_xi,
    fermionic_negativity,
    mutual_information,
    renyi_entropy,
    renyi_negativity_det,
    renyi_negativity_eig,
    vn_entropy,
)
from .model import (
    BiasConfig,
    ConstantS,
    Geometry,
    ImpurityModel,
    SingleSite,
    fermi_momentum,
    mirror_overlap,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction",
    "BiasConfig",
    "ConstantS",
    "CorrelationMatrix",
    "Geometry",
    "ImpurityModel",
    "MeasureResult",
    "SingleSite",
    "build_c_xi",
    "build_corr_matrix",
    "corr_entry_full",
    "fermi_momentum",
    "fermionic_negativity",
    "gen_eigvals",
    "herm_eigvals",
    "lu_logdet",
    "mirror_overlap",
    "mutual_information",
    "negativity_asym_symmetric",
    "q_fun",
    "q_n",
    "q_tilde_fun",
    "q_tilde_n",
    "renyi_entropy",
    "renyi_mi_asym",
    "renyi_negativity_det",
    "renyi_negativity_eig",
    "single_interval_entropy_asym",
    "vn_entropy",
    "vn_mi_asym",
]
