"""Expected-utility discounting under joint mortality and extinction hazards.

A numerical engine for discrete-time economies where individuals face a
constant death hazard m and everyone faces a constant extinction hazard M.
It evaluates expected-utility functionals for an individual, a dynasty
(total or population-weighted), a genetic lineage, and a social planner;
recovers each perspective's discount factor from the series weights; runs
belief-update comparative statics; and cross-checks everything against
seeded Monte Carlo and an integer-population agent-based mode.
"""

# the public names are each module's __all__, listed there only
from .model import *
from .series import *
from .analysis import *
from .simulate import *

__version__ = "0.1.0"
