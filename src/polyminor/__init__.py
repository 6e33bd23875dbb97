"""Inner 2-minor ideals of lattice polyominoes.

Geometry of cells and intervals, the binomial generators of a
collection's ideal, a Buchberger engine for differences of monomials,
primality certification through lattice saturation, the localization
argument for complements of convex polyominoes, graph representability
search, and a survey workbench.
"""

from .binomials import (
    LEX,
    Binomial,
    GradedRevlex,
    Monomial,
    MonomialOrder,
    Var,
    aux_var,
    generators,
    inner_minor,
    point_var,
)
from .geometry import (
    Cell,
    CellCollection,
    Interval,
    Point,
    Polyomino,
    complement,
    componentwise_less,
    inner_intervals,
    is_column_convex,
    is_convex,
    is_polyomino,
    is_row_convex,
    is_simple,
)
from .groebner import (
    BudgetExceeded,
    Deadline,
    DegreeCapExceeded,
    GroebnerBasis,
    buchberger,
    ideal_membership,
    quadratic_gb_condition,
    reduce,
    s_pair,
)
from .toric import (
    MonomialMap,
    PrimalityCertificate,
    TorsionWitness,
    is_nonzerodivisor,
    is_prime,
    is_saturated_lattice,
    saturate,
    toric_ideal_of_map,
)
from .localization import (
    CornerTriple,
    LocalizationReport,
    corner_set,
    nonzerodivisor_check,
    localization_hypotheses,
    verify_localization,
)
from .graphrep import (
    GraphLabeling,
    RepVerdict,
    bipartite_grid_labeling,
    relation_constraints,
    search_labeling,
    verify_representation,
)
from .enumeration import enumerate_polyominoes
from .documents import (
    ParseError,
    PolyominoDocument,
    parse_document,
    render_ascii,
    serialize_document,
)
from .survey import SurveyRow, survey, survey_row

__version__ = "0.1.0"
