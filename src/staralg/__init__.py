"""staralg: dense complex-matrix toolkit for the operator system
b X a = b = a X b, the star partial order, and their characterizations.

The library is organized as:

- ``matcore``:   one Factor per operand (SVD, rank, pseudoinverse), projectors,
                 residual conventions
- ``starorder``: the order predicate and range inclusion
- ``solvers``:   closed-form solution families and system diagnostics
- ``chars``:     characterizations via projections and (generalized) idempotents
- ``genlab``:    seeded, bit-reproducible instance generators
- ``verify``:    claim suites plus an independent least-squares oracle
- ``cli``:       matrix file format and the ``staralg`` command
"""

from . import chars, errors, genlab, matcore, solvers, starorder, verify
from .errors import *
from .matcore import *
from .starorder import *
from .solvers import *
from .chars import *
from .genlab import *
from .report import Check, Report, to_line
from .verify import *

__version__ = "0.1.0"

# each module's own __all__ is the one declaration of its public names;
# report's check_* helpers stay internal
__all__ = [
    "__version__",
    *errors.__all__,
    *matcore.__all__,
    *starorder.__all__,
    *solvers.__all__,
    *chars.__all__,
    *genlab.__all__,
    "Check",
    "Report",
    "to_line",
    *verify.__all__,
]
