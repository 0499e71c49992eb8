"""Finite quantum resource theories, variable-domain S4 translations,
model checking, and desk-scale theorem verification."""

from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatchError,
    FormulaSyntaxError,
    GenerationError,
    NumericalError,
    QrtModalError,
    ResourceLimitError,
    ShapeError,
    StructuralError,
    UnknownSymbolError,
)
from .formulas import (
    Atom,
    Box,
    Diamond,
    DomainWarning,
    Iff,
    Implies,
    Not,
    convexity_report,
    conversion_possibility_report,
    evaluate,
    is_resource_preserving,
    is_valid,
    parse,
    print_formula,
)
from .kripke import (
    KripkeModel,
    StarredModel,
    is_s4,
    is_sub_model,
    models_isomorphic,
    starred_isomorphic,
)
from .linalg import (
    DensityMatrix,
    KrausChannel,
    apply_channel,
    choi_matrix,
    compose,
    is_cptp,
    is_density_matrix,
    trace_distance,
)
from .qrt import (
    ChannelDecl,
    LabeledTheory,
    Qrt,
    SystemDecl,
    complete_composition,
    derive,
    qrt_isomorphic,
)
from .smc import build_smc, free_objects, verify_smc_laws
from .translate import (
    TranslationRecord,
    image_conditions,
    iso_conditions,
    to_model,
    to_starred_model,
    verify_functoriality,
    verify_starred_injectivity,
)

__version__ = "0.1.0"
