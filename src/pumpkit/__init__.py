"""Toolkit for pushdown machines: simulation, normalization, and a
constructive pumping decomposition with two independent verification paths.
"""

from .charts import Marker, Span, ascii_chart, decomposition_annotations, svg_chart
from .corpus import BUILTINS, CorpusEntry, general_variant
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
from .levels import (
    Configuration,
    FullState,
    LevelTriple,
    brute_force_max_level,
    configurations_up_to,
    extract_sublevel,
    flank_cuts,
    full_states,
    is_valid_level_triple,
    max_level,
)
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
    accepts,
    accepts_each,
    default_limits,
    minimal_accepting_path,
    replay,
)
from .serialize import FORMAT_VERSION, PdaDocument, dumps, load_document, load_path, loads, save_path, to_document
from .verify import (
    DEFAULT_N_SET,
    ConstraintReport,
    PumpVerdict,
    VerificationReport,
    check_constraints,
    pumped_word,
    replay_pumps,
    spliced_steps,
    verify,
    verify_by_replay,
    verify_by_search,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
