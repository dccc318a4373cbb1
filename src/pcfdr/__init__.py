"""Multiple testing of partial conjunction hypotheses with (weighted) FDR
control, replicability analysis for meta-analysis, and a Monte Carlo
verification harness. Every name in a module's ``__all__`` is exported
here."""

from .combine import *
from .numerics import *
from .partial_conjunction import *
from .pc_testing import *
from .procedures import *
from .replicability import *
from .simulation import *

__version__ = "0.1.0"
