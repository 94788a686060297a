"""Interacting lattice diffusions: simulation, scaling limit, rare events.

The package is organized around one convex single-site potential.  From it
everything else is built: the N-site conservative particle system, the
empirical measures it traces out, the nonlinear heat equation describing
its scaling limit, the action functional pricing deviations from that
limit, and Monte Carlo machinery for estimating rare-event costs.
"""

from .errors import (CFLViolation, ConfigInvalid, DegenerateEstimate,
                     GLLabError, NonFiniteField, NonFiniteState,
                     QuadratureDiverged, RootNotBracketed, TimeGridMismatch)
from .measures import (AtomicSignedMeasure, MeasurePath, bl_distance, d_star,
                       density_to_atoms, from_state, path_from_density_slices,
                       path_from_record)
from .particles import (ControlGrid, LatticeState, ProfileMeasure,
                        ReplicaBatch, SimConfig, TrajectoryRecord,
                        deterministic_profile, entropy_cost_of_profile,
                        equilibrium_profile, sample_initial_from_profile,
                        sample_initial_matrix, simulate_replicas,
                        simulate_trajectory, stable_dt, tilted_constant_profile,
                        tilted_profile, tilted_sine_profile)
from .pde import (DensityField, cfl_time_steps, contraction_gap,
                  control_l2_distance, solve_controlled_pde,
                  write_field_csv)
from .potential import (EnvelopeTable, Potential, QuadratureSpec,
                        TiltedFamilySampler, gaussian_potential,
                        make_potential, quartic_potential)
from .rare_events import (ExperimentReport, Functional, SteeringPlan,
                          TrendRow, importance_sampled_expectation,
                          laplace_functional_mc, ldp_trend_study,
                          sine_target_field, steering_plan, trend_gaps,
                          variational_upper_bound)
from .rate import RateDecomposition, initial_cost, minimal_control, rate

__version__ = "0.1.0"
