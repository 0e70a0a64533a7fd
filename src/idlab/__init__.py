"""Numerical laboratory for identifiability of latent-variable models.

Builds triangular monotone transports between fully supported laws, walks
the equivalence classes of generative models via latent-space transforms,
and checks at desk scale which model configurations (and which downstream
tasks) pin their latents down.
"""

from .errors import (BracketFailure, DegenerateMeans, DimensionMismatch,
                     IdlabError, NonFiniteDerivative,
                     RangeMismatch, RankDeficient, SingularCovariance,
                     SingularMatrix, UncertifiedTransform)
from .rng import stream
from .measures import (Distribution, ExpFamily, GaussianDistribution,
                       GaussianMixture1D, Laplace1D, Logistic1D, Normal1D,
                       ProductDistribution, distribution_from_spec,
                       interdecile_box, sample)
from .transport import (AffineMap, Automorphism, CdfChainMap, ComposedMap,
                        PushforwardReport, StructureReport, TriangularMap,
                        component_wise_check, jacobian_fd,
                        kr_transport, log_det_jacobian, pushforward_check)
from .linear import (ComonReport, LinearGenerator, SpanReport,
                     UniquenessReport, comon_structure_check,
                     rotation_counterexample, solve_multi_env_linear,
                     spanning_check)
from .envs import (AffineRelation, EnvironmentData, EnvironmentSet,
                   MarginalQuantileMap, ValidationReport,
                   affine_relation_fit, fit_env_affine_generator,
                   fit_gaussian_kr, fit_marginal_quantile_transport,
                   generate_environment_data, validate_strong_vae_config)
from .indeterminacy import (FixedCoordinateReport, IndeterminacyReport,
                            ModelParams, TransportedDistribution,
                            act_on_params, fixed_coordinate_check,
                            generator_transform, identity_deviation,
                            indeterminacy_audit, kernel_residual,
                            verify_multiview)
from .tasks import (TaskReport, TaskSpec, abs_diff_metric,
                    independence_test_task, latent_shift_task,
                    spearman_abs, sup_point_metric,
                    task_identifiability_check)
from .experiments import (EXPERIMENTS, ExperimentResult, experiment_names,
                          run_experiment)

__version__ = "0.1.0"
