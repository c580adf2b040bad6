"""Two-point-measurement joint distributions and fluctuation-theorem
verification for an open bipartite quantum system."""

__version__ = "0.1.0"

from .errors import (
    BiftError,
    ConsistencyError,
    DimensionError,
    DomainError,
    HermiticityError,
    NotApplicable,
    PartitionUnavailable,
    SizeError,
    UnitarityError,
)
from .functionals import (
    HeatPartition,
    TrajectoryFunctional,
    average,
    entropy_production,
    restricted_average,
    tuple_functionals,
)
from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    ReservoirSpec,
    SpectralDecomposition,
    Tolerances,
    density_operator,
    evolve,
    gibbs_state,
    partial_trace,
    remix_degenerate_blocks,
    spectral_decompose,
    tensor_product,
    time_reverse,
    von_neumann_entropy,
)
from .scenarios import (
    ScenarioResult,
    bell_adiabatic_counterexample,
    random_classical_instance,
    random_instance,
    werner_isothermal,
)
from .tables import (
    ForwardJointDistribution,
    OutcomeTuple,
    ReverseJointDistribution,
    SystemSpectra,
    UnitarySystem,
    augmented_forward,
    marginal,
    reverse_joint,
    spectra_from_analytic,
    spectra_from_unitary,
)
from .theorems import (
    Analysis,
    BoundRecord,
    FTReport,
    WorkInputs,
    classical_reduction_check,
    detailed_ft_check,
    evaluate,
    inequality_suite,
    integral_ft,
    reverse_averaged_ft,
)
