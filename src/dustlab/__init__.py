"""Desk-scale experiments on planar Cantor dust.

Exact generation of corner dust approximants, box-counting dimension
estimation, explicit center-bound path verification on the dust
complement, randomized intersection-dimension surveys over plane
isometries, and the composite pipeline extracting a same-dimension
subset of a given rasterized compact set.
"""

from .boxdim import (DimensionEstimate, ScaleSchedule, box_counts,
                     estimate_dimension, find_full_dimension_point)
from .cantor import (CantorApproximant, address_corners, alpha_for_dimension,
                     cantor_dimension, generate_cantor, scale_and_place)
from .composite import (AnnulusChain, CompositePlan, ConstructionReport,
                        PlacementRecord, assemble_composite, build_annuli,
                        check_plan, choose_b_sequence, place_cantor_in_annulus,
                        placement_diameter, run_pipeline)
from .errors import (AssemblyError, BudgetError, ConstructionError, DustError,
                     FormatError, ParameterError, PlacementError,
                     RingUndeterminedError)
from .formats import read_cad, write_bgr, write_cad
from .geometry import Alpha, BoxGrid, Isometry, Square, grid_intersection, rasterize
from .intersect import MattilaSurvey, apply_isometry, intersection_dimension, mattila_survey
from .john import (JohnPath, JohnReport, RingLocation, build_john_path,
                   ring_clearance_bound, ring_of_point, verify_john)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
