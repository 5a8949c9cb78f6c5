"""Numerical verification of total-curvature and isoperimetric inequalities
on nonpositively curved symmetric spaces.

Layering (each module depends only on earlier ones):
numeric_kernel -> lie_structure -> model_spaces -> busemann -> gauss_map
-> hypersurface -> verify_harness -> cli.  lie_structure holds the closed
forms of sl(n,R) (orthonormal basis, root norm, ad matrices); the tests
check them against the numeric derivation in tests/oracles.py.
"""

__version__ = "0.1.0"

from .model_spaces import SymmetricSpace, parse_space  # noqa: F401
from .busemann import BusemannFunction  # noqa: F401
from .gauss_map import translate_direction  # noqa: F401
from .hypersurface import Hypersurface, geodesic_sphere, radial_graph  # noqa: F401
