"""probleak: audit Bayesian predictive models for probability leakage.

Probability leakage is the mass a predictive distribution assigns to values
that declared evidence says cannot happen, such as a regression model for a
percentage giving 10% probability to negative outcomes. The package fits
flat-prior normal linear regressions (whose predictive is Student t), scores
their leakage against evidence declarations, applies strict falsification
semantics, and shows what leakage does to forecast calibration and scoring.

Each module's ``__all__`` is the one list of its public names; this package
re-exports them all. ``probleak.leakage`` is therefore the ``leakage``
function, not the submodule of that name, which stays in ``sys.modules``.

The package logs under the ``probleak`` logger, which carries a
``NullHandler``: nothing is printed unless the application configures
logging.
"""

import logging
import sys

from .exceptions import *
from .predictive import *
from .regression import *
from .leakage import *  # after the submodule loads: rebinds the package's `leakage` to the function
from .falsification import *
from .calibration import *
from .simulation import *

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = ["__version__"]
for _module in ("exceptions", "predictive", "regression", "leakage", "falsification", "calibration", "simulation"):
    __all__ += sys.modules[f"{__name__}.{_module}"].__all__
del _module
