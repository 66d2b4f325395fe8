"""Numerical laboratory for weighted radial (model-manifold) geometry.

Represents rotationally symmetric weighted manifolds by radial data
(warping function, weight), solves the associated semilinear radial ODEs,
and machine-checks curvature signs, comparison inequalities, Pohozaev-type
global-positivity arguments, and the P-function identities and estimates.
"""

__version__ = "0.1.0"

from bel.construction import build_example, verify_theorem
from bel.errors import BelError
from bel.pfunction import bubble, k_functional, v_transform

#: The README quick start's names, and the root of every coded error.
__all__ = ["BelError", "bubble", "build_example", "k_functional", "v_transform", "verify_theorem"]
