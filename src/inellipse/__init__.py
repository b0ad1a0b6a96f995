"""Ellipses inscribed in convex quadrilaterals.

Construction and analysis of the inscribed-ellipse families of convex
quadrilaterals: MDQ classification, tangency chords, conjugate diameters,
and the unique minimal-eccentricity inscribed ellipse.

The paper's (s,t,v,w) frame, as far as the CLI reads it, lives in
`inellipse.affine`, which no solver reads; `import inellipse` does not
load it.  Its `normalize_to_qstvw` and `alpha_root` resolve here on first
use, each to the `inellipse.affine` attribute of that moment.
"""

from .conic import (ConicCoeffs, EllipseGeometry, center, discriminants,
                    evaluate, geometry, gradient, is_ellipse, line_intersect,
                    proportional)
from .quad import (ClassificationReport, DiagonalData, Quadrilateral,
                   canonicalize, classify, diagonals, quadrilateral)
from .family import InscribedEllipse, inscribe
from .diameters import (DiameterPair, TangencyChords, check_T1, check_T2,
                        conjugate_direction, diameter_endpoints,
                        equal_conjugate_diameters, tangency_chords)
from .minecc import (MinEccResult, T3Report, min_ecc, min_ecc_numeric,
                     verify_T3)

__version__ = "0.1.0"

_FRAME_NAMES = frozenset(("alpha_root", "normalize_to_qstvw"))


def __getattr__(name):
    # not cached in this namespace, so a rebinding in `inellipse.affine`
    # (a tracer's or a test's) is what the package hands out, and undoing
    # it leaves nothing stale behind
    if name in _FRAME_NAMES:
        from . import affine
        return getattr(affine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _FRAME_NAMES)
