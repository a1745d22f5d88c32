"""Ruleset selections over the Table-5 catalogue.

The benchmark fragments (paper §6):

* ``rho-df`` — the ρdf subset: the essential RDFS semantics.
* ``rdfs-default`` — the "default" RDFS flavour: two-way-join rules only.
* ``rdfs-full`` — RDFS-default plus the half-circle rules that "do not
  produce meaningful triples but satisfy the logician" (RDFS4/6/8/10/12/13).
* ``rdfs-plus`` — the RDFS-Plus fragment of Allemang & Hendler.
* ``rdfs-plus-full`` — RDFS-Plus plus its half-circle rules
  (SCM-CLS / SCM-DP / SCM-OP / RDFS4).
"""

from __future__ import annotations

from typing import List

from .spec import Rule
from .table5 import TABLE5, make_rules

RULESET_NAMES = (
    "rho-df",
    "rdfs-default",
    "rdfs-full",
    "rdfs-plus",
    "rdfs-plus-full",
)


def _names(column: str, include_full: bool) -> List[str]:
    names = []
    for entry in TABLE5:
        membership = getattr(entry, column)
        if membership is True:
            names.append(entry.name)
        elif membership == "full" and include_full:
            names.append(entry.name)
    return names


def ruleset_rule_names(name: str) -> List[str]:
    """The Table-5 rule names composing a ruleset."""
    if name == "rho-df":
        return _names("rho_df", include_full=False)
    if name == "rdfs-default":
        return _names("rdfs", include_full=False)
    if name == "rdfs-full":
        return _names("rdfs", include_full=True)
    if name == "rdfs-plus":
        return _names("rdfs_plus", include_full=False)
    if name == "rdfs-plus-full":
        return _names("rdfs_plus", include_full=True)
    raise ValueError(
        f"unknown ruleset {name!r}; expected one of {RULESET_NAMES}"
    )


def get_ruleset(name: str) -> List[Rule]:
    """Instantiate the executors of a named ruleset."""
    return make_rules(ruleset_rule_names(name))
