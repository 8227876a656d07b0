"""Exact-arithmetic toolkit for the super Catalan numbers.

Lattice-path families (Dyck, 2-Motzkin, ballot), their exhaustive
enumeration, the signed path counts whose difference gives T(m,n), the
constructive bijections between the families, and verification suites
that check every supported identity at desk scale.
"""

from .bijections import *
from .enumeration import *
from .errors import *
from .numbers import *
from .paths import *
from .render import *
from .verify import Failure, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "Failure",
    "VerificationReport",
]
__all__ += bijections.__all__
__all__ += enumeration.__all__
__all__ += errors.__all__
__all__ += numbers.__all__
__all__ += paths.__all__
__all__ += render.__all__
