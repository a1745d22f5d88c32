"""The Table-5 rules as resolved datalog, shared by the baseline engines.

The comparator engines (naive / hash-join / RETE) evaluate the rulesets
as plain datalog over encoded triples — *without* Inferray's closure
pre-pass or sorted layout.  That is precisely the paper's comparison:
iterative systems pay the duplicate-explosion cost on transitive rules
(SCM-SCO, SCM-SPO, EQ-TRANS, PRP-TRP appear here as ordinary 2- and
3-atom rules).

The rules are the catalogue's own descriptions
(:mod:`repro.rules.table5`), resolved through :class:`Vocab`.  An
:class:`Atom` holds a variable (a ``str`` beginning with ``?``) or an
encoded constant (``int``) in each position; a rule may carry
inequality constraints between variables (PRP-FP / PRP-IFP) and several
head atoms.  Fixed points of these programs coincide with Inferray's
materialization — asserted by the differential tests, while the
hand-written conformance fixtures check both without reading the
descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..rules import spec
from ..rules.spec import Vocab
from ..rules.table5 import BY_NAME

TermSpec = Union[str, int]  # "?var" or encoded constant id
EncodedTriple = Tuple[int, int, int]


@dataclass(frozen=True)
class Atom:
    """One triple pattern of a datalog rule body or head."""

    s: TermSpec
    p: TermSpec
    o: TermSpec

    def positions(self) -> Tuple[TermSpec, TermSpec, TermSpec]:
        return (self.s, self.p, self.o)

    def variables(self) -> List[str]:
        """Variables in this atom, in position order."""
        return [t for t in self.positions() if isinstance(t, str)]


@dataclass(frozen=True)
class DatalogRule:
    """body₁ ∧ … ∧ bodyₙ [∧ v≠w …] → head₁ ∧ … ∧ headₘ."""

    name: str
    body: Tuple[Atom, ...]
    heads: Tuple[Atom, ...]
    not_equal: Tuple[Tuple[str, str], ...] = field(default=())


def is_var(term: TermSpec) -> bool:
    """True for a variable spec (``"?x"``)."""
    return isinstance(term, str)


def datalog_ruleset(names: Sequence[str], vocab: Vocab) -> List[DatalogRule]:
    """The catalogue's descriptions of ``names`` (order preserved), with
    their constants resolved through ``vocab``."""

    def resolve(atoms) -> Tuple[Atom, ...]:
        return tuple(
            Atom(*(term if spec.is_var(term) else vocab[term] for term in atom))
            for atom in atoms
        )

    rules = []
    for name in names:
        description = BY_NAME[name].description
        rules.append(
            DatalogRule(
                name,
                resolve(description.body),
                resolve(description.head),
                description.not_equal,
            )
        )
    return rules


def substitute(atom: Atom, bindings: Dict[str, int]) -> Atom:
    """Apply variable bindings to an atom (unbound vars remain)."""
    def resolve(term: TermSpec) -> TermSpec:
        if isinstance(term, str):
            return bindings.get(term, term)
        return term

    return Atom(resolve(atom.s), resolve(atom.p), resolve(atom.o))


def match_atom(
    atom: Atom, fact: EncodedTriple, bindings: Dict[str, int]
) -> Optional[Dict[str, int]]:
    """Unify an atom with a ground fact under existing bindings.

    Returns the extended bindings, or ``None`` on mismatch.  Repeated
    variables inside an atom (e.g. RDFS6's reflexive head) unify.
    """
    new_bindings = bindings
    extended = False
    for term, value in zip(atom.positions(), fact):
        if isinstance(term, str):
            bound = new_bindings.get(term)
            if bound is None:
                if not extended:
                    new_bindings = dict(new_bindings)
                    extended = True
                new_bindings[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return new_bindings
