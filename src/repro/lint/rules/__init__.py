"""Rule registry: one instance of every rule, ordered by ID.

Adding a rule = write a module under ``repro/lint/rules/``, instantiate
it here, give it a fixture pair under ``tests/lint/fixtures/`` (one
``*_bad.py`` that fires it, one ``*_good.py`` that stays silent), and
document it in README's "Determinism rules" table.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from .base import Rule
from .cachekeys import CacheKeyRule
from .clock import WallClockRule
from .ordering import SetOrderRule
from .pickling import UnpicklableWorkerRule
from .rng import GlobalRngRule
from .state import GlobalStateRule

__all__ = [
    "FAMILIES",
    "RULES",
    "Rule",
    "family_of",
    "rule_by_identifier",
    "select_rules",
]

#: The four static-analysis tiers sharing the RPL namespace (plus the
#: shared parse-error band).  Keyed by rule-ID prefix; ``repro-check
#: --list-rules`` and the README table derive their framing from here
#: so the tiers stay described in one place.
FAMILIES = {
    "RPL1": "determinism lint, per-file (lint tier)",
    "RPL2": "purity audit, whole-program (audit tier)",
    "RPL3": "numeric & hot-path analysis (vec tier)",
    "RPL4": "cache-soundness & config-flow analysis (flow tier)",
    "RPL9": "parse errors, shared by every tier",
}


def family_of(rule_id: str) -> str:
    """Human framing of a rule's tier (``"RPL301"`` -> the vec tier)."""
    for prefix, description in FAMILIES.items():
        if rule_id.startswith(prefix):
            return description
    return "unknown rule family"

RULES: List[Rule] = sorted(
    [
        GlobalRngRule(),
        GlobalStateRule(),
        WallClockRule(),
        SetOrderRule(),
        UnpicklableWorkerRule(),
        CacheKeyRule(),
    ],
    key=lambda rule: rule.rule_id,
)


def rule_by_identifier(identifier: str, rules: Optional[Sequence[Any]] = None):
    """Look up a rule by ID (``RPL104``) or name (``set-order``).

    ``rules`` is the catalogue to search: the lint rules by default, or
    any tier's (``AUDIT_RULES``, ``VEC_RULES``, ``FLOW_RULES``) — every
    tier's rules share the identity metadata this matches on.
    """
    catalogue = RULES if rules is None else rules
    needle = identifier.strip().lower()
    for rule in catalogue:
        if needle in (rule.rule_id.lower(), rule.name.lower()):
            return rule
    known = ", ".join(f"{r.rule_id}/{r.name}" for r in catalogue)
    raise KeyError(f"unknown rule {identifier!r}; known rules: {known}")


def select_rules(
    rules: Sequence[Any],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Any]:
    """``rules`` narrowed to ``select`` (when given) minus ``ignore``.

    Identifiers are IDs or names from ``rules``; an unknown one raises
    :class:`KeyError`.
    """
    chosen = list(rules)
    if select is not None:
        wanted = {rule_by_identifier(name, rules).rule_id for name in select}
        chosen = [rule for rule in chosen if rule.rule_id in wanted]
    if ignore is not None:
        dropped = {rule_by_identifier(name, rules).rule_id for name in ignore}
        chosen = [rule for rule in chosen if rule.rule_id not in dropped]
    return chosen
