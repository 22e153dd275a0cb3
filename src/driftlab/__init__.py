"""driftlab: simulation harness for prediction under drift with dependent data.

Generates drifting binary-label streams (independent or Markov-modulated),
runs windowed/subsampled ERM learners on them, accounts cumulative excess risk
exactly, and verifies the supporting facts (blocking, uniform deviation,
discrepancy bounds, mixing rates) by exact computation.
"""

__version__ = "0.1.0"
SCHEMA_VERSION = 1

from .distributions import *
from .evaluation import *
from .hypotheses import *
from .learners import *
from .processes import *
from .harness import *
