"""Quintic root-finding by iterating a symmetric degree-6 rational map on
complex projective 3-space, together with the geometric verification surface
that backs it: the order-120 symmetry group, its invariants and equivariant
maps, the special orbit configuration, restricted one-dimensional maps, and
basin-of-attraction portraits.
"""
from .geometry import (H, HCT, INF, chordal_distance, line_chart, chart_eval,
                       chart_invert, u_to_x, x_to_u)
from .group import GroupElement, all_elements, element, orbit
from .invariants import phi, phi4_from_G4, phi5_from_G5, psi10, k_values
from .equivariants import (f6, g11, h11, phi6, restricted_map,
                           restricted_map_names, ruling_coords)
from .orbits import line, plane, point, verify_configuration
from .params import (build_param_polys, gammaK, phiK_map, root_selector_J,
                     tau)
from .solver import (DegenerateReduction, NoConvergence, Quintic,
                     RegularizationFailed, SolveReport, depress,
                     mobius_regularize, reduce_to_K, resolvent_RK, solve)
from .basins import (AttractorSet, GridSpec, Portrait, attractor_statistics,
                     render_1d, render_plane, write_ppm)

__version__ = "0.1.0"
