"""recurq: recurrence entropy bounds and quantized recurrence-enforcing control.

Tools for checking windowed recurrence of nonlinear control trajectories,
computing entropy-style upper/lower bounds on the information rate needed
to enforce it, searching exact minimum spanning control sets on small
instances, and running a quantized sensor/controller loop whose bit rate
and guarantees can be audited offline.
"""

from .geometry import (Box, CompactSet, GridCover, distance, distance_many,
                       grid, neighborhood)
from .systems import (BUILTIN_SYSTEMS, ControlSignal, ControlSystem,
                      DomainError, IntegrationBlowupError, Trajectory,
                      divergence, double_integrator, integrate, jacobian_fd,
                      make_system, scalar_linear)
from .recurrence import (ContainmentConstants, RecurrenceSpec, ResolutionError,
                         containment_radius, estimate_F_Q, estimate_L,
                         first_return_time, is_invariant, is_recurrent,
                         lipschitz_region)
from .entropy import (CandidateClass, InstanceTooLargeError, SpanningInstance,
                      build_spanning_instance, dim_box_counting, greedy_cover,
                      initial_point_grid, lower_bound,
                      min_spanning_cardinality, uncoverable_points,
                      upper_bound)
from .quantized import (BitRateReport, ClauseResult, ControllerInvalidError,
                        DeterminismError, EpisodeLog, GridMirror,
                        GuaranteeReport, GuaranteeViolationError,
                        ProtocolError, RecurrenceController, StepRecord,
                        bit_rate, build_feedback_controller, closed_loop,
                        decode, encode, load_step_records,
                        reference_controller_double_integrator, run_episode,
                        run_episodes, steady_state_cover_size,
                        verify_guarantees)

__version__ = "0.1.0"
