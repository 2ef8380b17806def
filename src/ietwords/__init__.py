"""Exact symbolic coding of piecewise-affine interval maps.

Generate symbolic words by coding orbits of interval exchange
transformations and other piecewise-affine maps of [0, 1), decide when a
coloring is good for a map, refine any coloring into a good one, and glue
the refined coding back — all in exact arithmetic over Q(sqrt(d)).
"""

from types import ModuleType as _ModuleType

from .exactnum import (
    ExactScalar,
    FieldMismatch,
    NonSquarefreeRadicand,
    OutOfExpectedRange,
    ParseError,
    ZeroDenominator,
    format_scalar,
    make_scalar,
    mod1,
    parse_scalar,
)
from .intervalsets import BoundarySet, Component, interval
from .intervalmap import (
    IET,
    AffinePiece,
    CorruptMap,
    HalfOpenInterval,
    NotBijective,
    NotTranslationPiecewise,
    PiecewiseMap,
    PointOutsideDomain,
    identity_map,
    iet_to_map,
    rotation,
    to_iet,
)
from .subdivision import (
    CoverageGapError,
    GluingMap,
    GoodnessCertificate,
    GoodnessViolation,
    OverlapError,
    Subdivision,
    UnknownLetter,
    is_good,
    refine_to_good,
)
from .coding import (
    OK,
    RoundtripResult,
    SymbolicWord,
    WordOrigin,
    code,
    glue_word,
    iter_code,
    iter_orbit,
    orbit,
    roundtrip_check,
)
from .analysis import (
    APERIODIC_AT_SCALE,
    NOT_RECURRENT_AT_SCALE,
    ComplexityProfile,
    PrefixTooShort,
    RecurrenceProfile,
    complexity,
    detect_period,
    recurrence_profile,
    recurrence_window,
)
from .jsonio import (
    InstanceSpec,
    SpecError,
    dumps,
    gluing_from_json,
    iet_to_json,
    instance_to_json,
    map_from_json,
    map_to_json,
    parse_spec,
    subdivision_from_json,
    subdivision_to_json,
    word_to_json,
)

__version__ = "0.1.0"

# pydoc lists what __all__ names: every public name imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
