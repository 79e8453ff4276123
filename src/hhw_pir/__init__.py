"""Single-server PIR over extension-field codes, and the rank statistics
that break its privacy.

The package has three faces: the protocol itself (query / respond /
decode), the distinguisher that recovers a query's target index from the
public query alone, and exact analysis of the failure bounds and
communication rates that govern both.
"""

from .analysis import (
    DerivedParams,
    FailureBound,
    RateReport,
    derive,
    failure_bound,
    gaussian_binomial,
    measured_rate,
    measured_rate_limit,
    rate_report,
)
from .attack import AttackReport, rank_profile, recover_index
from .errors import (
    BadArguments,
    BadSplit,
    DecodeFailure,
    DimensionMismatch,
    InvalidParams,
    MatrixFileError,
    NotInformationSet,
    RankDeficientGenerator,
    ReducibleModulus,
    SamplingExhausted,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    run_experiment,
    trial_seed,
)
from .fields import BasisSplit, FieldTower, Fq, build_tower, sample_basis_split
from .linalg import ExtMatrix, change_basis, fq_rank, rank_ext, rank_fq
from .params import DEFAULT_PARAMS, SchemeParams
from .scheme import (
    Database,
    Query,
    QuerySecrets,
    Response,
    decode,
    generate_query,
    respond,
    sample_code,
)

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "BadArguments",
    "BadSplit",
    "BasisSplit",
    "Database",
    "DecodeFailure",
    "DerivedParams",
    "DEFAULT_PARAMS",
    "DimensionMismatch",
    "ExperimentConfig",
    "ExperimentReport",
    "ExtMatrix",
    "FailureBound",
    "FieldTower",
    "Fq",
    "InvalidParams",
    "MatrixFileError",
    "NotInformationSet",
    "Query",
    "QuerySecrets",
    "RankDeficientGenerator",
    "ReducibleModulus",
    "RateReport",
    "Response",
    "SamplingExhausted",
    "SchemeParams",
    "TrialRecord",
    "build_tower",
    "change_basis",
    "decode",
    "derive",
    "failure_bound",
    "fq_rank",
    "gaussian_binomial",
    "generate_query",
    "measured_rate",
    "measured_rate_limit",
    "rank_ext",
    "rank_fq",
    "rank_profile",
    "rate_report",
    "recover_index",
    "respond",
    "run_experiment",
    "sample_basis_split",
    "sample_code",
    "trial_seed",
]
