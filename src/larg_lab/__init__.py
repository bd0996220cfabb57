"""Local area random graphs over norm-derived plane metrics.

The layers, bottom to top: exact scalar arithmetic, norm shapes and
distances, dense point-set sampling, LARG edge sampling, step-isometry
construction and verification, grid/anchoring machinery, and Monte Carlo
experiments.  Everything public in each layer is re-exported here.
"""

import os as _os

# No layer makes a BLAS call, so numpy's OpenBLAS is loaded with one thread:
# a worker thread would only spin.  OpenBLAS reads the variable once, at load,
# so the environment is left as it was; a value the caller set, or a numpy
# imported before this package, is kept.
if "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .exact import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .pointsets import *  # noqa: F401,F403
from .larg import *  # noqa: F401,F403
from .stepiso import *  # noqa: F401,F403
from .grids import *  # noqa: F401,F403
from .anchoring import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

from . import exact, geometry, pointsets, larg, stepiso, grids, anchoring, experiments

__version__ = "0.1.0"

__all__ = sorted(
    set(exact.__all__)
    | set(geometry.__all__)
    | set(pointsets.__all__)
    | set(larg.__all__)
    | set(stepiso.__all__)
    | set(grids.__all__)
    | set(anchoring.__all__)
    | set(experiments.__all__)
)
