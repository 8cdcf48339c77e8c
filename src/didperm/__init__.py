"""Doubly randomized permutation inference for the 2x2 difference-in-differences design.

The package estimates the DiD coefficient of a two-group, two-period
panel, builds its null distribution by relabeling the group and/or period
indicators (by margin-preserving rearrangement or Bernoulli(1/2) redraw),
and delivers quantile decisions, randomization p-values, exact
enumeration for small samples, and combinatorial accounting of the
relabeling space.

The public names are those of each submodule's `__all__`.
"""

from . import datasets, errors, inference, ingest, panel, power, randomize, report, spaces
from .datasets import *
from .errors import *
from .inference import *
from .ingest import *
from .panel import *
from .power import *
from .randomize import *
from .report import *
from .spaces import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (datasets, errors, inference, ingest, panel, power, randomize, report, spaces)
    for name in module.__all__
)
