"""Classical Fourier surrogates for data-reuploading quantum circuits.

The toolkit simulates reuploading circuits exactly, rewrites them as
truncated Fourier series (either via exact full-grid recovery or via
sampled random Fourier features fitted on training data), and quantifies
the accuracy/resource trade-off with memory estimates, feature-count
bounds, and scaling sweeps.

Each module's ``__all__`` is the one declaration of its public names;
the package re-exports them all.
"""

__version__ = "0.1.0"

from . import datasets, errors, experiments, pipeline, simulator, spectrum, surrogate
from .datasets import *
from .errors import *
from .experiments import *
from .pipeline import *
from .simulator import *
from .spectrum import *
from .surrogate import *

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += simulator.__all__
__all__ += spectrum.__all__
__all__ += surrogate.__all__
__all__ += datasets.__all__
__all__ += pipeline.__all__
__all__ += experiments.__all__
