"""Numerical laboratory for ratio-limit boundaries of tree and free-group walks."""

from .errors import *
from .geometry import *
from .kernels import *
from .matrix_boundary import *
from .presets import *
from .products import *
from .reduced_boundary import *
from .series import *
from .walks import *

__version__ = "0.1.0"
