"""One-step derivability, set-at-a-time: DRed's rederive check, and the
well-foundedness half of a closure certificate.

Per description and head atom, the candidate rows the head unifies with
seed a binding table over its variables; the BGP evaluator extends it
body atom by body atom (merge joins, key slices), and the rows left,
inequalities holding, are the candidates the rule derives.
"""

from __future__ import annotations

from typing import Sequence

from ..query.bgp import SolutionTable, _Evaluation
from ..store.triple_store import InferredBuffers, TripleStore
from .spec import Rule, Vocab, is_var


def derivable(
    rules: Sequence[Rule],
    vocab: Vocab,
    candidates: TripleStore,
    store: TripleStore,
) -> InferredBuffers:
    """The triples of ``candidates`` a rule derives in one step from
    ``store`` (unsorted, repeated once per derivation)."""
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
    table = evaluation.table(
        first, [table.column(name) for name in first.values()], len(table)
    )
    body = [tuple(map(position, atom)) for atom in description.body]
    for index in evaluation.order(body, table.variables):
        if not len(table):
            return
        table = evaluation.extend(table, *body[index])
    for left, right in description.not_equal:
        same = kernels.where_equal(column(table, left), column(table, right))
        kept = kernels.difference(
            kernels.pair_with_constant(range(len(table)), 0),
            kernels.pair_with_constant(same, 0),
        )
        table = evaluation.gather(table, kept[0::2])
    s, p, o = head
    groups = evaluation.groups(table, p) if isinstance(p, str) else [(p, table)]
    for pid, rows in groups:
        if len(rows):
            pairs = kernels.interleave(column(rows, s), column(rows, o))
            out.extend(pid, pairs)
