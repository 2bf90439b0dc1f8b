"""Dissipative quenches of small XX spin-chain batteries.

Gibbs states are propagated under GKSL generators whose dissipative part
interpolates between local and collective dissipation/dephasing channels;
the ergotropy of the resulting trajectories is analyzed and cross-checked
against closed-form sector solutions.
"""

from .channels import ChannelSpec, Liouvillian, build_liouvillian, vec
from .config import ConfigError, ExperimentConfig, validate_config
from .dynamics import InvariantViolation, TimeGrid, Trajectory, evolve_to, propagate
from .ergotropy import (ErgotropyRecord, activation_time, eigenvalue_crossings,
                        energy_basis_populations, ergotropy, ergotropy_difference,
                        trajectory_records)
from .jc import (JCSpec, compare_jc, default_jc_spec, effective_atom_evolution,
                 jc_full_evolution, jc_hamiltonian)
from .linalg import expm, hermitian_eig, hermitian_eig_batch, kron, null_space_hermitian
from .model import (ModelSpec, build_hamiltonian, check_density_matrix,
                    collective_operator, gibbs_state, site_operator)
from .oracles import (DarkSubspace, TwoQubitBlockState, activation_time_analytic,
                      beta_critical, collective_steady_spectrum, dark_population_series,
                      dark_subspace, dephasing_two_qubit_block, p_dark,
                      p_dark_derivative, steady_s_infinity, steady_state_is_passive,
                      two_qubit_collective_sc, two_qubit_parallel_block)
from .experiments import EXPERIMENTS, run_experiment

__version__ = "0.1.0"
