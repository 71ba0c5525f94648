"""Klein-Gordon modes on global anti-de Sitter space.

Mode families on slice, rod, and tube regions, their symplectic pairings,
isometry actions on momentum representations, initial/boundary data
inversion, and the flat (Minkowski) limit.
"""

from .geometry import AdsParams, make_params
from .modes import (RadialKind, SliceLabel, TransferMatrix, TubeLabel,
                    jacobi_radial, magic_frequency, mode_eval, norm_constant,
                    radial_eval, transfer_matrix)
from .expansions import (OmegaGrid, RodRep, SliceRep, TubeRep, synth)

__all__ = [
    "AdsParams", "make_params",
    "RadialKind", "SliceLabel", "TransferMatrix", "TubeLabel",
    "jacobi_radial", "magic_frequency", "mode_eval", "norm_constant",
    "radial_eval", "transfer_matrix",
    "OmegaGrid", "RodRep", "SliceRep", "TubeRep", "synth",
]

__version__ = "0.1.0"
