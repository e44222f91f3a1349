"""isoplab: a numerical laboratory for weighted perimeters and volumes under
densities that level off at a positive constant at infinity.

The package measures the set families used to certify that far-away regions
can beat the "ball at infinity": offset unit balls, their cylinder
extensions, and rotation-swept enlargements.  It provides the radial layer
kernels of offset balls, sliding-kernel sign certificates, a far-ball
search, volume-matched competitor construction, and the finite-extinction
comparison ODE for tail masses.
"""

from .competitor import (CompetitorCertificate, ExtensionResult,
                         SweepAdvanceMap, VolumeMatch, build_competitor,
                         cylinder_extension, rotation_extension,
                         select_sweep_direction, sweep_advance_map,
                         volume_match)
from .density import (ConfigError, ConvergenceReport, Density, RadialDeficit,
                      SampleSpec, deficit_profile, density_from_config,
                      eval_weight, radial_average, rescale,
                      validate_convergence)
from .extinction import (ComparisonReport, ExtinctionCertificate,
                         TailMassCurve, comparison_check, extinction_time,
                         simulate_comparison_ode, tail_mass, tail_mass_curve)
from .farball import (FarBallCertificate, directional_margins,
                      find_far_radius, select_direction, select_working_circle)
from .layers import (DeviationReport, LayerKernelPair, asymptotic_kernels,
                     cap_area, cap_geometry, exact_kernels, kernel_deviation,
                     layer_integral, sin_power_integral)
from .measures import (CompetitorSet, CylinderExtended, MeasureResult,
                       PlainBall, RotationSwept, ball_deficit_measures,
                       mean_density, profile_upper_bound, set_measures,
                       weighted_ball_measures)
from .quadrature import unit_ball_volume, unit_sphere_area
from .sliding import (AdmissibilityReport, SignSearchOutcome, SlidingKernel,
                      averaging_identity_residual, check_admissibility,
                      correlation, direct_kernel, excess_kernel,
                      sliding_sign_search)

__version__ = "0.1.0"
