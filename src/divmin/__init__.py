"""Exact divergence minimization on small discrete systems.

The package treats one problem in many guises: choose the free factors
of a directed system p so that the joint comes as close as possible,
in KL divergence, to an unnormalized target product q. Everything is
enumerated exactly, so decompositions of that divergence (inference,
control, empowerment, skill discovery, information gain) can be
certified against each other term by term: ``verify`` compares the
engine's values with the reports' to about 1e-15. ``gradcheck``
compares exact gradients with central differences of the engine's
value, at a fixed relative tolerance of 1e-8, and bounds the score
residual by 1e-10.

Layers, bottom up: ``tables`` holds exact distributions and
information quantities; ``systems`` declares factored systems and
targets; ``decomp`` rearranges the joint divergence into certified
reports; ``engine`` differentiates expectation functionals;
``objectives`` packages the named objective families; ``optim``
minimizes them; ``verify`` replays identities over seeded random
instances; ``config``/``runio``/``cli`` run configured experiments.
"""

from .config import (
    SCHEMA_VERSION,
    RunConfig,
    bundled_config_names,
    bundled_config_path,
    load_config,
    parse_config,
)
from .decomp import (
    Report,
    bayesian_future_check,
    decompose_input_side,
    decompose_latent_side,
    energy_entropy,
    expected_free_energy,
    fully_matched_target,
    joint_kl,
    observe,
    past_future_split,
    realize,
)
from .errors import (
    CapacityError,
    ConfigError,
    DivergenceError,
    DivminError,
    NullEvidenceError,
    ValidationError,
)
from .objectives import (
    FAMILY_TAGS,
    OBJECTIVE_FAMILIES,
    Objective,
    from_preset,
    make_objective,
)
from .optim import (
    GradientCheck,
    IterationRecord,
    OptimTrace,
    ScanResult,
    check_gradient,
    map_scan,
    minimize,
)
from .presets import PRESETS, preset
from .presets import names as preset_names
from .randsys import rng_for
from .systems import (
    ActualSystem,
    ConditionalFactor,
    FactorMirror,
    FactorSpec,
    Horizon,
    MarginalMirror,
    ParamFactor,
    RewardFactor,
    TableFactor,
    TargetSpec,
    build_joint,
)
from .tables import (
    KLResult,
    Role,
    Table,
    UnnormalizedTable,
    Variable,
    condition,
    entropy,
    expected_conditional_kl,
    kl,
    marginalize,
    mutual_information,
    variational_mi_lower_bound,
)
from .verify import CheckResult, SuiteResult, check_names, run_suite

__version__ = "0.1.0"

__all__ = [
    "ActualSystem",
    "CapacityError",
    "CheckResult",
    "ConditionalFactor",
    "ConfigError",
    "DivergenceError",
    "DivminError",
    "FAMILY_TAGS",
    "FactorMirror",
    "FactorSpec",
    "GradientCheck",
    "Horizon",
    "IterationRecord",
    "KLResult",
    "MarginalMirror",
    "NullEvidenceError",
    "OBJECTIVE_FAMILIES",
    "Objective",
    "OptimTrace",
    "PRESETS",
    "ParamFactor",
    "Report",
    "RewardFactor",
    "Role",
    "RunConfig",
    "SCHEMA_VERSION",
    "ScanResult",
    "SuiteResult",
    "Table",
    "TableFactor",
    "TargetSpec",
    "UnnormalizedTable",
    "ValidationError",
    "Variable",
    "bayesian_future_check",
    "build_joint",
    "bundled_config_names",
    "bundled_config_path",
    "check_gradient",
    "check_names",
    "condition",
    "decompose_input_side",
    "decompose_latent_side",
    "energy_entropy",
    "entropy",
    "expected_conditional_kl",
    "expected_free_energy",
    "from_preset",
    "fully_matched_target",
    "joint_kl",
    "kl",
    "load_config",
    "make_objective",
    "map_scan",
    "marginalize",
    "minimize",
    "mutual_information",
    "observe",
    "parse_config",
    "past_future_split",
    "preset",
    "preset_names",
    "realize",
    "rng_for",
    "run_suite",
    "variational_mi_lower_bound",
]
