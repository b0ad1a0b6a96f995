"""Ellipses inscribed in convex quadrilaterals.

Construction and analysis of the inscribed-ellipse families of convex
quadrilaterals: MDQ classification, tangency chords, conjugate diameters,
and the unique minimal-eccentricity inscribed ellipse.
"""

from .conic import (ConicCoeffs, EllipseGeometry, center, discriminants,
                    evaluate, geometry, gradient, is_ellipse, line_intersect,
                    proportional)
from .quad import (ClassificationReport, DiagonalData, Quadrilateral,
                   canonicalize, classify, diagonals, f_values, mdq_type_qstvw,
                   quadrilateral)
from .affine import AffineMap, QstvwFrame, normalize_to_qstvw
from .family import (InscribedEllipse, inscribe, marden_foci, qst_center_param,
                     qst_conic, qst_tangency, qstvw_conic, qstvw_tangency)
from .diameters import (DiameterPair, TangencyChords, check_T1, check_T2,
                        conjugate_direction, diameter_endpoints,
                        equal_conjugate_diameters, tangency_chords)
from .minecc import (EccFunctional, G_value, MinEccResult, N_factorization,
                     T3Report, alpha_root, min_ecc, min_ecc_numeric,
                     p_quartic, verify_T3)

__version__ = "0.1.0"
