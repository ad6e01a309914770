"""Exact interval probability measures built from weak complementation.

The package models finite product spaces whose eventualities pair a
label with a binary sequence, partitions them into incompatibility
classes, and builds interval-valued (imprecise) probability measures
whose widths collect the indecisive mass of each event.  Everything is
exact rational arithmetic; capacities, Choquet integration, graded
conditioning, interval distribution functions with stochastic
dominance, and product interval measures are layered on top, each with
an independent brute-force oracle used by the test suite.
"""

from . import capacity, conditioning, dominance, errors, measure, product, scenario, space
from .capacity import *
from .conditioning import *
from .dominance import *
from .errors import *
from .measure import *
from .product import *
from .scenario import *
from .space import *

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
__all__ = sorted(
    name
    for module in (capacity, conditioning, dominance, errors, measure, product, scenario, space)
    for name in module.__all__
)
