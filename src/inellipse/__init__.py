"""Ellipses inscribed in convex quadrilaterals.

Construction and analysis of the inscribed-ellipse families of convex
quadrilaterals: MDQ classification, tangency chords, conjugate diameters,
and the unique minimal-eccentricity inscribed ellipse.
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
from .affine import (AffineMap, EccFunctional, G_value, N_factorization, QstvwFrame,
                     alpha_root, f_values, marden_foci, mdq_type_qstvw,
                     normalize_to_qstvw, p_quartic, qst_center_param, qst_conic,
                     qst_tangency, qstvw_conic, qstvw_tangency)

__version__ = "0.1.0"
