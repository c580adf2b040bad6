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
    SizeError,
    UnitarityError,
)
from .functionals import (
    EndpointFunctionals,
    endpoint_functionals,
)
from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    ReservoirSpec,
    SpectralDecomposition,
    Tolerances,
    density_operator,
    partial_trace,
    remix_degenerate_blocks,
    spectral_decompose,
)
from .scenarios import (
    ScenarioResult,
    bell_adiabatic_counterexample,
    random_classical_instance,
    random_instance,
    werner_isothermal,
)
from .tables import (
    DenseJoint,
    FactoredJoint,
    OutcomeTuple,
    SystemSpectra,
    UnitarySystem,
    augmented_forward,
    factored_joint,
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
