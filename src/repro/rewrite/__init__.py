"""Query rewriting with learned predicates."""

from .cache import CacheStats, RewriteCache
from .rewriter import COMBINED, FULL_SET, PER_COLUMN, RewriteResult, rewrite_query, rewrite_sql
from .rules import (
    is_syntax_based_prospective,
    pushdown_blocked_tables,
    synthesis_input,
    target_columns,
)

__all__ = [
    "COMBINED",
    "FULL_SET",
    "PER_COLUMN",
    "CacheStats",
    "RewriteCache",
    "RewriteResult",
    "is_syntax_based_prospective",
    "pushdown_blocked_tables",
    "rewrite_query",
    "rewrite_sql",
    "synthesis_input",
    "target_columns",
]
