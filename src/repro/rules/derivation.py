"""One-step derivability, set-at-a-time: DRed's rederive check, and the
well-foundedness half of a closure certificate.

Per description and head atom, the candidate rows the head unifies with
seed a binding table over its variables; the BGP evaluator extends it
body atom by body atom (merge joins, key slices, and a binary-searched
row filter for an atom whose terms are all bound), and the rows left,
inequalities holding, are the candidates the rule derives.  When the
last atom names its property by a variable, it is evaluated one
property at a time, and a candidate proven by one property is dropped
before the next is read: a candidate is checked until one derivation
is found, not for every derivation it has.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from ..query.bgp import SolutionTable, _Evaluation
from ..store.triple_store import InferredBuffers, TripleStore
from .spec import Rule, Vocab, is_var

#: The seed table's column of candidate row numbers, kept through the
#: joins while a variable-predicate atom may still prove a candidate.
_CANDIDATE = "#"


def derivable(
    rules: Sequence[Rule],
    vocab: Vocab,
    candidates: TripleStore,
    store: TripleStore,
) -> InferredBuffers:
    """The triples of ``candidates`` a rule derives in one step from
    ``store`` (unsorted): each derivable candidate at least once."""
    evaluation = _Evaluation(store, None)
    kernels = evaluation.kernels
    seeds = {}
    for pid in candidates.property_ids():
        flat = candidates.columns(pid)
        seeds[pid] = [flat[0::2], kernels.repeat((pid,), (len(flat) // 2,)),
                      flat[1::2]]
    every = [kernels.concat(columns) for columns in zip(*seeds.values())]
    out = InferredBuffers()
    for description in (d for rule in rules for d in rule.descriptions):
        for head in description.head:
            columns = every if is_var(head[1]) else seeds.get(vocab[head[1]])
            if columns:
                _derive(evaluation, vocab, description, head, columns, out)
    return out


def _derive(evaluation, vocab, description, head, columns, out) -> None:
    """Emit the candidates (``columns`` s, p, o) ``description`` derives
    through ``head``."""
    kernels = evaluation.kernels

    def position(term: str):
        return term if is_var(term) else vocab[term]

    def column(rows: SolutionTable, term):
        if isinstance(term, str):
            return rows.column(term)
        return kernels.repeat((term,), (len(rows),))

    def unequal(rows: SolutionTable) -> SolutionTable:
        """``rows`` where the description's inequalities hold."""
        if not len(rows):
            return rows
        for left, right in description.not_equal:
            same = kernels.where_equal(column(rows, left), column(rows, right))
            kept = kernels.difference(
                kernels.pair_with_constant(range(len(rows)), 0),
                kernels.pair_with_constant(same, 0),
            )
            rows = evaluation.gather(rows, kept[0::2])
        return rows

    def emit(rows: SolutionTable) -> None:
        s, p, o = head
        groups = evaluation.groups(rows, p) if isinstance(p, str) else [(p, rows)]
        for pid, group in groups:
            if len(group):
                out.extend(pid, kernels.interleave(column(group, s),
                                                   column(group, o)))

    # Seed: the rows fitting the head's constants and repeated variables.
    head = tuple(map(position, head))
    table = evaluation.table("spo", columns, len(columns[0]))
    first = {}
    for name, term in zip("spo", head):
        if isinstance(term, str) and term not in first:
            first[term] = name
            continue
        match = column(table, first.get(term, term))
        table = evaluation.gather(
            table, kernels.where_equal(table.column(name), match)
        )
    body = [tuple(map(position, atom)) for atom in description.body]
    *joins, last = evaluation.order(body, first)
    s, p, o = body[last]
    names, seeded = list(first), [table.column(name) for name in first.values()]
    if isinstance(p, str):
        names.append(_CANDIDATE)
        seeded.append(kernels.concat([array("q", range(len(table)))]))
    n_candidates = len(table)
    table = evaluation.table(names, seeded, n_candidates)
    for index in joins:
        if not len(table):
            return
        table = evaluation.extend(table, *body[index])
    if not len(table):
        return
    if isinstance(p, int):
        emit(unequal(evaluation.extend_table(table, p, s, o)))
        return
    groups = evaluation.property_groups(table, p)
    if len(groups) == 1:
        (pid, rows), = groups
        emit(unequal(evaluation.extend_group(rows, pid, s, p, o)))
        return
    # Candidate by candidate, until one derivation is found.
    proven = set()
    for pid, rows in groups:
        if proven:
            keep = [i for i, candidate in enumerate(
                rows.column(_CANDIDATE).tolist()) if candidate not in proven]
            if not keep:
                continue
            if len(keep) < len(rows):
                rows = evaluation.gather(
                    rows, kernels.concat([array("q", keep)]))
        part = unequal(evaluation.extend_group(rows, pid, s, p, o))
        if len(part):
            emit(part)
            proven.update(part.column(_CANDIDATE).tolist())
            if len(proven) == n_candidates:
                return
