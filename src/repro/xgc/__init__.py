"""XGC collision-kernel proxy app (the paper's application substrate).

From-scratch reproduction of the workload the batched solvers serve: a
nonlinear Fokker-Planck collision operator on a 2D velocity grid,
discretised with a conservative 9-point finite-volume stencil, advanced by
backward Euler + Picard for an ion/electron plasma, batched over spatial
mesh nodes.
"""

from .assembly import CollisionStencil
from .collision import (
    CollisionCoefficients,
    linearized_coefficients,
    linearized_coefficients_masses,
)
from .conservation import (
    ConservationReport,
    apply_conservation_fix,
    check_conservation,
    check_multispecies_conservation,
)
from .grid import VelocityGrid
from .maxwellian import Moments, maxwellian, moments, relative_entropy
from .operators import (
    CollisionOperator1D,
    ParallelVelocityGrid,
    dougherty_operator,
    grid_maxwellian,
    grid_moments,
    landau_coupled_operator,
    lenard_bernstein_operator,
)
from .picard import PICARD_SOLVERS, PicardOptions, PicardStepper, PicardStepResult
from .proxyapp import CollisionProxyApp, ProxyAppConfig, ProxyAppResult
from .scenarios import (
    CARBON,
    LANDAU_MIX,
    OPERATOR_SCENARIOS,
    TRITON,
    OperatorScenario,
    OperatorStepOutcome,
    multi_ion,
    run_operator_scenario,
)
from .species import DEUTERON, ELECTRON, SPECIES_BY_NAME, Species
from .timeline import Segment, TimelineReport, simulate_picard_timeline

__all__ = [
    "VelocityGrid",
    "Species",
    "ELECTRON",
    "DEUTERON",
    "SPECIES_BY_NAME",
    "Moments",
    "maxwellian",
    "moments",
    "relative_entropy",
    "CollisionCoefficients",
    "linearized_coefficients",
    "linearized_coefficients_masses",
    "CollisionStencil",
    "ConservationReport",
    "check_conservation",
    "check_multispecies_conservation",
    "apply_conservation_fix",
    "PICARD_SOLVERS",
    "PicardOptions",
    "PicardStepper",
    "PicardStepResult",
    "ProxyAppConfig",
    "CollisionProxyApp",
    "ProxyAppResult",
    "TRITON",
    "CARBON",
    "multi_ion",
    "ParallelVelocityGrid",
    "CollisionOperator1D",
    "grid_maxwellian",
    "grid_moments",
    "lenard_bernstein_operator",
    "dougherty_operator",
    "landau_coupled_operator",
    "LANDAU_MIX",
    "OPERATOR_SCENARIOS",
    "OperatorScenario",
    "OperatorStepOutcome",
    "run_operator_scenario",
    "Segment",
    "TimelineReport",
    "simulate_picard_timeline",
]
