"""convexkit: exact rational geometry of convex polytopes.

Volumes, Minkowski combinations and mixed volumes are computed in exact
rational arithmetic, which makes the equality cases of the volume-concavity
inequalities decidable; the package pairs every such quantity with an
independent second route and exposes checkers, homothety diagnosis, planar
support reconstruction and Steiner symmetrization on top.
"""

from .bodies import (
    axis_segment,
    box,
    diamond,
    disc_polygon,
    random_direction,
    random_polytope,
    segment,
    standard_simplex,
    unit_cube,
    unit_square,
)
from .errors import GeometryError
from .geometry import (
    Facet,
    Polytope,
    Subspace,
    convex_hull,
    hyperplane_subspace,
    polygon_cycle,
    project,
    projected_volume_sq,
    reflect_through_hyperplane,
    scale,
    support,
    support_set,
    translate,
    vertex_centroid,
)
from .homothety import (
    HomothetyDecision,
    HomothetyWitness,
    default_direction_set,
    detect_homothety,
    functional_equality_sweep,
    homothetic_projections_conclude,
    normalize_shadows,
    projection_equality_step,
)
from .inequalities import (
    ConcavityProfile,
    Form,
    InequalityReport,
    Verdict,
    bm_check,
    concavity_profile,
    derivative_identity_check,
    minkowski_check,
    mmv_implies_bm_trace,
    normalized_check,
)
from .reconstruction import (
    corner_normalize,
    farey_directions,
    mixed_area_oracle,
    recover_support_any,
    translates_decision,
)
from .steiner import (
    rounding_iteration,
    steiner_symmetral,
    superadditivity_check,
)
from .volumes import (
    VolumePolynomial,
    combine,
    mixed_area,
    mixed_volume_base_height,
    mixed_volume_interp,
    projection_prism_volume,
    surface_area,
    volume_polynomial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
