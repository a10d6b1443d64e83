"""zeta-forge: exact double-shuffle reduction tables for nested zeta sums.

The package solves, weight by weight, the linear systems spanned by the
stuffle and shuffle product expansions (plus regularized and optional
duality relations) of multiple zeta values, producing persistent tables
that substitute every admissible index word by a rational combination of
basis monomials over a conjectured Lyndon-word basis with n-fold
extensions.  A verification layer rechecks all relations against the
tables, reports dimensions against the Lyndon counts, and validates the
combinatorial structure of the published weight-27/28 listings.
"""

from ._meta import BUILD_ID, VERSION as __version__
from .words import (
    Word,
    admissible_words,
    dual,
    is_admissible,
    is_lyndon,
    parse_word,
    render_word,
    weight,
)
from .lyndon import (
    ExtendedCandidate,
    candidate_pool,
    candidate_words,
    collapse_word,
    elimination_order,
    extend_word,
    odd_lyndon_words,
    published_basis,
)
from .algebra import hoffman_relation, shuffle_words, stuffle
from .solver import (
    SolvedWeight,
    TableStore,
    ensure_solved,
    solve_weight,
    substitute_tables,
)
from .verify import (
    BasisReport,
    basis_report,
    dimension_report,
    minimal_depth_stats,
    published_basis_check,
    recheck_relations,
)

__all__ = [
    "BUILD_ID",
    "BasisReport",
    "ExtendedCandidate",
    "SolvedWeight",
    "TableStore",
    "Word",
    "__version__",
    "admissible_words",
    "basis_report",
    "candidate_pool",
    "candidate_words",
    "collapse_word",
    "dimension_report",
    "dual",
    "elimination_order",
    "ensure_solved",
    "extend_word",
    "hoffman_relation",
    "is_admissible",
    "is_lyndon",
    "minimal_depth_stats",
    "odd_lyndon_words",
    "parse_word",
    "published_basis",
    "published_basis_check",
    "recheck_relations",
    "render_word",
    "shuffle_words",
    "solve_weight",
    "stuffle",
    "substitute_tables",
    "weight",
]
