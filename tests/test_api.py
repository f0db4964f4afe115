from types import ModuleType

import pumpkit

PUBLIC_NAMES = [
    "Accepted", "BLANK", "BOTTOM", "BUILTINS", "Case1Witness", "Case2Witness",
    "ConstraintReport", "ConstructionFalsifiedError", "CorpusEntry", "DEFAULT_N_SET",
    "Decomposition", "Diagnostics", "ExtractionError", "ExtractionMode",
    "ExtractionResult", "FORMAT_VERSION", "FormatError", "GeneralPda",
    "GeneralTransition", "Issue", "LevelTriple", "LimitExceeded", "Marker",
    "NoWitnessError", "NormalizedPda", "NormalizedTransition", "NotAccepted",
    "NotAcceptedError", "Pda", "PdaDocument", "PumpVerdict",
    "PumpingLengthOverflowError", "PumpingParams", "PumpkitError", "ReplayError",
    "RunPath", "SearchLimitError", "SearchLimits", "Span", "StrictPreconditionError",
    "TopSymbolMismatchError", "ValidationReport", "VerificationReport", "accepts",
    "accepts_each", "ascii_chart", "check_constraints", "corpus_get",
    "decomposition_annotations", "default_limits", "dumps", "extract",
    "flank_cuts", "is_star_form", "load_document", "load_path", "loads",
    "minimal_accepting_path", "normalize", "pumped_word", "pumping_params",
    "replay", "replay_pumps", "svg_chart", "to_document", "validate",
    "verify",
]


def test_public_names_are_pinned_and_resolve():
    # the package binds its submodules as attributes too; they are not API
    assert pumpkit.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert not isinstance(getattr(pumpkit, name), ModuleType), name
