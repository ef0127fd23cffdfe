"""Confidence-graded belief updating.

Learners revise belief states in response to observations carrying a
confidence grade drawn from an ordered monoid.  The package provides the
stock confidence domains and learners, the revision rules on finite
probability spaces, a vector-field calculus for additive updates (parallel
combination, integration, interleaving), and an executable suite of the
laws a well-behaved learner satisfies.
"""

from . import axioms, beliefs, confidence, errors, flows, learners, mutants
from .errors import *
from .confidence import *
from .beliefs import *
from .learners import *
from .flows import *
from .axioms import *
from .mutants import *

__version__ = "0.1.0"

# a name is public iff the module that defines it lists it
__all__ = [
    *errors.__all__,
    *confidence.__all__,
    *beliefs.__all__,
    *learners.__all__,
    *flows.__all__,
    *axioms.__all__,
    *mutants.__all__,
    "__version__",
]
