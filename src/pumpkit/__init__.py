"""Toolkit for pushdown machines: simulation, normalization, and a
constructive pumping decomposition with two independent verification paths.
"""

from types import ModuleType as _ModuleType

from .charts import Marker, Span, ascii_chart, decomposition_annotations, svg_chart
from .corpus import BUILTINS, CorpusEntry
from .corpus import get as corpus_get
from .errors import (
    ConstructionFalsifiedError,
    ExtractionError,
    FormatError,
    NotAcceptedError,
    NoWitnessError,
    PumpingLengthOverflowError,
    PumpkitError,
    SearchLimitError,
    StrictPreconditionError,
    TopSymbolMismatchError,
)
from .extract import (
    Case1Witness,
    Case2Witness,
    Decomposition,
    Diagnostics,
    ExtractionMode,
    ExtractionResult,
    extract,
)
from .levels import LevelTriple, flank_cuts
from .normalize import PumpingParams, normalize, pumping_params
from .pda import (
    BLANK,
    BOTTOM,
    GeneralPda,
    GeneralTransition,
    Issue,
    NormalizedPda,
    NormalizedTransition,
    Pda,
    ValidationReport,
    is_star_form,
    validate,
)
from .run import (
    Accepted,
    LimitExceeded,
    NotAccepted,
    ReplayError,
    RunPath,
    SearchLimits,
    default_limits,
    minimal_accepting_path,
    replay,
)
from .search import accepts, accepts_each
from .serialize import FORMAT_VERSION, PdaDocument, dumps, load_document, load_path, loads, to_document
from .verify import (
    DEFAULT_N_SET,
    ConstraintReport,
    PumpVerdict,
    VerificationReport,
    check_constraints,
    pumped_word,
    replay_pumps,
    verify,
)

__version__ = "0.1.0"

# The public names: everything imported above except the submodules, which
# importing them binds on the package as a side effect.
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
