"""Contact-angle and moving-frame numerics for surfaces in the unit 3-sphere.

The package computes adapted frames and the signed contact angle of
parametric surfaces immersed in S^3, verifies the curvature, Laplacian and
connection identities those frames satisfy on minimal surfaces by grid
refinement, and probes the rigidity of the flat minimal torus with a
squared-mean-curvature descent.
"""

from .ambient import (canonical_frame_vectors, contact_project, dot,
                      frame_derivative_check, hermitian, perp, reeb)
from .calculus import (IDENTITIES, IdentityReport, ShapeOperatorField,
                       build_analysis, frame_gradient,
                       gaussian_curvature_extrinsic, gaussian_curvature_intrinsic,
                       laplace_beltrami, refinement_study, shape_operator,
                       verify_identity)
from .catalog import CatalogEntry, clifford, geodesic_sphere, perturb, r_torus
from .errors import (ContactGeomError, DegenerateContact,
                     DegenerateParametrization, NotTangent, OffSphere,
                     ParseError, RangeError)
from .flow import FlowConfig, FlowReport, descend, theorem_probe
from .sampleio import read_samples
from .surface import (FrameField, GridSpec, MetricField, SurfaceGrid,
                      contact_angle_field, sample, tangent_fields)

# perfbench's tests import read_samples under this name
load_samples = read_samples

__version__ = "0.1.0"
