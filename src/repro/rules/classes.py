"""Executors for the Table-5 rules (paper §4.4), built from descriptions.

Every rule is one :class:`~repro.rules.spec.Description` in
:mod:`repro.rules.table5`.  Three executors cover the 1- and 2-atom
bodies; each reads its body's shape once, at construction, and fires it
with the kernel calls that shape needs (:func:`shaped_rule` picks one):

* :class:`JoinRule` — two constant-predicate atoms joined on the
  variables they share (α, β, and the ablation's iterative θ), by sort
  merge over the ⟨s, o⟩ tables and their cached ⟨o, s⟩ views, exactly
  as the paper's Figure 4 describes for CAX-SCO;
* :class:`SchemaRule` — a schema atom whose rows name the data atom's
  predicate: one copy, swap or typing step per table they name (γ, δ);
* :class:`OneAtomRule` — a one-atom body: Δ's rows written into each
  head (the trivial rules).

Three stay special, each for the reason its docstring gives:
:class:`ThetaRule` (the Nuutila pre-pass, §4.1),
:class:`FunctionalPropertyRule` (a 3-atom body scanned in O(k·n)) and
:class:`SameAsRule` (EQ-REP-S/P/O in one loop).  Each still carries its
description(s), which is all the dependency graph, the hybrid planner
and the datalog oracle read.

The bulk passes execute on the engine's kernel backend (``ctx.kernels``;
see :mod:`repro.kernels`), so rule firing is vectorized end to end under
the NumPy backend: a join produces one flat pair array that is handed
to the output buffers as a single chunk, never one Python-level
``emit`` per derived triple.

Semi-naive evaluation.  ``ctx.new`` is the delta Δ of the last merge
and ``ctx.main`` the store M ⊇ Δ.  A two-atom executor runs the legs of
:func:`semi_naive_legs`: Δ ⋈ M and M ⋈ Δ, which cover every derivation
with at least one atom in Δ (Δ ⋈ Δ twice; the merge drops the
duplicates).  On a batch run's first iteration Δ *is* M and the two
legs are one join, so only the first runs.  A :class:`SchemaRule`'s
M-schema × Δ-data leg walks Δ's tables and looks up the schema rows
naming each by key, so it costs the tables Δ holds, not the schema's
rows.

A rule that re-feeds its own output over a transitively closed schema
property S (CAX-SCO over subClassOf, PRP-SPO1 over subPropertyOf; see
:func:`self_fed_rules`) is handed, from its second iteration on, a Δ
whose data tables no longer hold what it emitted the iteration before:
whatever those rows would derive through an S row is derived anyway —
through the composite S row θ puts in S — by the untrimmed ΔS leg or an
earlier iteration.  S itself is never trimmed.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .spec import Description, Rule, RuleContext, is_var, table_or_none
from ..closure.components import (
    closed_pairs,
    symmetric_transitive_closure_pairs,
)


def semi_naive_legs(new, main):
    """The (first-atom store, second-atom store) legs of a two-atom body.

    (Δ × M) ∪ (M × Δ) covers every derivation with an atom in Δ.  When
    Δ is M — a batch run's first iteration — both legs are the same
    join, so only the first runs.
    """
    if new is main:
        return ((new, main),)
    return ((new, main), (main, new))


def _unsupported(name: str, description: Description) -> ValueError:
    return ValueError(
        f"{name}: no executor fires {description.body} → {description.head}"
    )


class JoinRule(Rule):
    """α, β and the iterative θ: two constant-predicate atoms joined on
    the variables they share.

    One shared variable: each leg sort-merge joins the two tables on it,
    through each atom's ⟨s, o⟩ or ⟨o, s⟩ view, and ``merge_join`` emits
    the two other variables in the head's order.  Both shared: the legs
    ``intersect`` the views.  A body that is its own mirror, ⟨a P b⟩ ∧
    ⟨b P a⟩ (SCM-EQC2 / SCM-EQP2), runs the Δ ⋈ M leg only and emits its
    swap for the M ⋈ Δ leg.
    """

    def __init__(self, name: str, description: Description,
                 rule_class: str = "custom"):
        super().__init__(name, (description,), rule_class)
        (atom1, atom2), (head,) = description.body, description.head
        self.p1, self.p2, self.out = atom1[1], atom2[1], head[1]
        shared = {atom1[0], atom1[2]} & {atom2[0], atom2[2]}
        self.intersecting = len(shared) == 2
        self.mirrored = atom2 == atom1[::-1]
        if self.intersecting:
            # Both views in atom 1's ⟨s, o⟩ order.
            self.by_subject = (True, atom2[0] == atom1[0])
            order = (atom1[0], atom1[2])
        else:
            (key,) = shared or (None,)
            self.by_subject = (atom1[0] == key, atom2[0] == key)
            order = (
                atom1[2] if atom1[0] == key else atom1[0],
                atom2[2] if atom2[0] == key else atom2[0],
            )
        terms = (head[0], head[2])
        if (
            not shared
            or terms not in (order, order[::-1])
            or any(is_var(p) for p in (self.p1, self.p2, self.out))
        ):
            raise _unsupported(name, description)
        self.swap = terms != order

    def _tables(self, new, main, vocab):
        legs = ((new, main),) if self.mirrored else semi_naive_legs(new, main)
        for store1, store2 in legs:
            table1 = table_or_none(store1, vocab[self.p1])
            table2 = table_or_none(store2, vocab[self.p2])
            if table1 is not None and table2 is not None:
                yield table1, table2

    def apply(self, ctx: RuleContext) -> None:
        kernels = ctx.kernels
        out_pid = ctx.vocab[self.out]
        emitted = 0
        for table1, table2 in self._tables(ctx.new, ctx.main, ctx.vocab):
            view1 = table1.pairs if self.by_subject[0] else table1.os_pairs()
            view2 = table2.pairs if self.by_subject[1] else table2.os_pairs()
            if not self.intersecting:
                chunks = (kernels.merge_join(view1, view2, swap=self.swap),)
            else:
                rows = kernels.intersect(view1, view2)
                if self.mirrored:
                    chunks = (rows, kernels.swap(rows))
                else:
                    chunks = (kernels.swap(rows) if self.swap else rows,)
            for chunk in chunks:
                if len(chunk):
                    ctx.out.extend(out_pid, chunk)
                    emitted += len(chunk) // 2
        ctx.count(self.name, emitted)


class SchemaRule(Rule):
    """γ and δ: a schema atom whose rows name the data atom's predicate.

    Body ⟨schema row⟩ ∧ ⟨x ?p y⟩ with ``?p`` a variable of the schema
    atom, whose object may be a marker class (⟨?p type
    SymmetricProperty⟩).  Each leg pairs the tables of its data store
    with the schema rows naming them, and takes one step per table:
    copy it into each head table its rows name (δ: PRP-SPO1,
    PRP-EQP1/2), swap it (PRP-INV1/2, PRP-SYMP), or pair its distinct
    subjects (objects) with every class its rows name, one block per
    table (PRP-DOM/RNG) — cheap in practice because "the number of
    properties is much smaller compared to classes and instances."
    The pairing walks the data store's tables and looks each one's
    schema rows up by key, so a Δ leg costs the few tables Δ holds.
    """

    def __init__(self, name: str, description: Description,
                 rule_class: str = "custom"):
        super().__init__(name, (description,), rule_class)
        (schema, data), (head,) = description.body, description.head
        self.schema, self.out = schema[1], head[1]
        self.marker = None if is_var(schema[2]) else schema[2]
        row = [term for term in (schema[0], schema[2]) if is_var(term)]
        data_terms, head_terms = (data[0], data[2]), (head[0], head[2])
        self.typed = not is_var(head[1])
        if self.typed:
            target = head[2]  # the row's class
            self.use_subjects = head[0] == data[0]
            fits = head[0] in data_terms
        else:
            target = head[1]  # the table the row names
            self.reverse = head_terms == data_terms[::-1]
            fits = head_terms in (data_terms, data_terms[::-1])
        if not fits or is_var(schema[1]) or not {data[1], target} <= set(row):
            raise _unsupported(name, description)
        self.source, self.target = row.index(data[1]), row.index(target)

    def _named(self, schema, data_store, ctx):
        """``(property id, table, targets)`` per table of ``data_store``
        that schema rows name, with the ids those rows pair it with —
        the property itself when the schema atom is a marker's: one key
        lookup in the schema per table, so a leg costs the tables its
        data store holds, not the schema's rows."""
        by_object = self.source == 1
        if self.marker is not None:
            marked = set(schema.subjects_of(ctx.vocab[self.marker]))
        # In ascending id order, as the schema's sorted rows name them.
        for pid in sorted(data_store.property_ids()):
            if self.marker is not None:
                named = (pid,) if pid in marked else ()
            else:
                named = schema.columns(pid, by_object=by_object)[1::2]
                if self.target == self.source:  # the head keeps ?p
                    named = (pid,) * len(named)
            if len(named):
                yield pid, data_store.table(pid), named

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        kernels = ctx.kernels
        emitted = 0
        for schema_store, data_store in semi_naive_legs(ctx.new, ctx.main):
            schema = table_or_none(schema_store, vocab[self.schema])
            if schema is None:
                continue
            for pid, table, targets in self._named(schema, data_store, ctx):
                if self.typed:
                    members = kernels.concat([kernels.distinct_evens(
                        table.pairs if self.use_subjects else table.os_pairs()
                    )])
                    if not len(members):
                        continue
                    # members × classes: the members once per class.
                    n_classes = len(targets)
                    ctx.out.extend(vocab[self.out], kernels.pair_with_constant(
                        members, int(targets[0])
                    ) if n_classes == 1 else kernels.interleave(
                        kernels.concat([members] * n_classes),
                        kernels.repeat(targets, [len(members)] * n_classes),
                    ))
                    emitted += len(members) * n_classes
                    continue
                pairs = table.pairs
                for target in targets:
                    # (a table copied onto itself adds nothing)
                    if self.reverse or target != pid:
                        ctx.out.extend(
                            int(target),
                            kernels.swap(pairs) if self.reverse else pairs,
                        )
                        emitted += table.n_pairs
        ctx.count(self.name, emitted)


class OneAtomRule(Rule):
    """The trivial rules: a one-atom body, Δ's rows written into each head.

    The body is ⟨x type MARKER⟩ (SCM-CLS/DP/OP, RDFS6/8/10/12/13), one
    table ⟨a P b⟩ (EQ-SYM, SCM-EQC1/EQP1) or every table ⟨x ?p y⟩
    (RDFS4).  A head over both of a row's terms gets the rows, copied or
    swapped; a head over one variable pairs that variable's distinct
    values with the head's constant, or with themselves
    (⟨x subClassOf x⟩).
    """

    def __init__(self, name: str, description: Description,
                 rule_class: str = "custom"):
        super().__init__(name, (description,), rule_class)
        ((self.s, self.p, self.o),) = description.body
        body_vars = {term for term in (self.s, self.o) if is_var(term)}
        for subject, prop, obj in description.head:
            head_vars = {term for term in (subject, obj) if is_var(term)}
            if is_var(prop) or not head_vars or not head_vars <= body_vars:
                raise _unsupported(name, description)

    def _values(self, table, var, ctx):
        """Distinct values ``var`` takes in one Δ table."""
        if not is_var(self.o):
            return table.subjects_of(ctx.vocab[self.o])
        return ctx.kernels.distinct_evens(
            table.pairs if var == self.s else table.os_pairs()
        )

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        kernels = ctx.kernels
        new = ctx.new
        pids = new.property_ids() if is_var(self.p) else (vocab[self.p],)
        emitted = 0
        for pid in pids:
            table = table_or_none(new, pid)
            if table is None:
                continue
            values = {}
            for subject, prop, obj in self.descriptions[0].head:
                if is_var(subject) and is_var(obj) and subject != obj:
                    count = table.n_pairs
                    pairs = table.pairs
                    chunk = pairs if subject == self.s else kernels.swap(pairs)
                else:
                    var = subject if is_var(subject) else obj
                    if var not in values:
                        values[var] = self._values(table, var, ctx)
                    members = values[var]
                    count = len(members)
                    if not count:
                        continue
                    if subject == obj:
                        chunk = kernels.repeat(members, [2] * count)
                    elif var == subject:
                        chunk = kernels.pair_with_constant(members, vocab[obj])
                    else:
                        chunk = kernels.pair_with_constant(
                            members, vocab[subject], constant_as_object=False
                        )
                ctx.out.extend(vocab[prop], chunk)
                emitted += count
        ctx.count(self.name, emitted)


def shaped_rule(name: str, description: Description,
                rule_class: str = "custom") -> Rule:
    """The executor for a 1- or 2-atom body, picked by its shape."""
    body = description.body
    if len(body) == 1:
        return OneAtomRule(name, description, rule_class)
    if len(body) == 2 and is_var(body[1][1]):
        return SchemaRule(name, description, rule_class)
    if len(body) == 2:
        return JoinRule(name, description, rule_class)
    raise _unsupported(name, description)


class FunctionalPropertyRule(Rule):
    """PRP-FP / PRP-IFP: ⟨p type M⟩ ∧ ⟨x p y1⟩ ∧ ⟨x p y2⟩, y1 ≠ y2.

    Special because the body's self-join is quadratic per group.  For
    each marked property whose table (or marking) changed this
    iteration, one scan of the view keyed on the two data atoms' shared
    variable — ⟨s, o⟩ for FP, ⟨o, s⟩ for IFP — emits a sameAs link
    between *consecutive distinct* values in each group; the
    symmetric-transitive sameAs closure completes the clique, preserving
    the paper's O(k·n) bound.
    """

    def __init__(self, name: str, description: Description,
                 rule_class: str = "functional"):
        super().__init__(name, (description,), rule_class)
        (_, _, self.marker), data1, data2 = description.body
        self.inverse = data1[2] == data2[2]
        self.out = description.head[0][1]

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        marker = vocab[self.marker]
        main_types = table_or_none(ctx.main, vocab.type)
        if main_types is None:
            return
        marked = main_types.subjects_of(marker)
        if not marked:
            return
        new_types = table_or_none(ctx.new, vocab.type)
        newly_marked = (
            set(new_types.subjects_of(marker)) if new_types is not None else set()
        )
        out_pid = vocab[self.out]
        emitted = 0
        for p in marked:
            changed = p in newly_marked or table_or_none(ctx.new, p) is not None
            if not changed:
                continue
            table = table_or_none(ctx.main, p)
            if table is None:
                continue
            view = table.os_pairs() if self.inverse else table.pairs
            conflicts = ctx.kernels.consecutive_in_group(view)
            if len(conflicts):
                ctx.out.extend(out_pid, conflicts)
                emitted += len(conflicts) // 2
        ctx.count(self.name, emitted)


class SameAsRule(Rule):
    """same-as: EQ-REP-S / EQ-REP-P / EQ-REP-O in a single loop (§4.4).

    Special because the paper "handles the four rules with a single
    loop": one executor fires the three descriptions.  The sameAs table
    (already symmetric after the θ closure) drives the substitution: for
    each pair ⟨a, b⟩, b's property table is copied to a (EQ-REP-P) and
    every occurrence of b as subject or object in any property table
    re-emits with a substituted (EQ-REP-S / EQ-REP-O), via per-table
    merge joins.

    Both directions run even when ``new is main``: direction 1 replaces
    b by a for each ⟨a, sameAs, b⟩, direction 2 replaces s by its
    partner for each ⟨s, sameAs, partner⟩.  They are mirror images only
    once ``sameAs`` is symmetric-closed, which a custom catalogue
    without EQ-SYM / EQ-TRANS does not guarantee.
    """

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        kernels = ctx.kernels
        sameas_pid = vocab.sameAs
        emit = ctx.out.emit
        emitted = 0

        # Direction 1: new sameAs pairs × main data.
        new_sa = table_or_none(ctx.new, sameas_pid)
        if new_sa is not None:
            sa_by_object = new_sa.os_pairs()  # keyed by b, rest = a
            for a, b in new_sa.iter_pairs():
                if a == b:
                    continue
                table_b = table_or_none(ctx.main, b)
                if table_b is not None:  # EQ-REP-P
                    ctx.out.extend(a, table_b.pairs)
                    emitted += table_b.n_pairs
            for pid in ctx.main.property_ids():
                table = ctx.main.table(pid)
                # EQ-REP-S: ⟨b, p, o⟩ ∧ sameAs(a, b) → ⟨a, p, o⟩.
                substituted = kernels.merge_join(sa_by_object, table.pairs)
                if len(substituted):
                    ctx.out.extend(pid, substituted)
                    emitted += len(substituted) // 2
                # EQ-REP-O: ⟨s, p, b⟩ ∧ sameAs(a, b) → ⟨s, p, a⟩.
                substituted = kernels.merge_join(
                    sa_by_object, table.os_pairs(), swap=True
                )
                if len(substituted):
                    ctx.out.extend(pid, substituted)
                    emitted += len(substituted) // 2

        # Direction 2: all sameAs pairs × new data.
        main_sa = table_or_none(ctx.main, sameas_pid)
        if main_sa is not None:
            for pid in ctx.new.property_ids():
                new_table = ctx.new.table(pid)
                for partner in main_sa.objects_of(pid):  # EQ-REP-P
                    if partner != pid:
                        ctx.out.extend(partner, new_table.pairs)
                        emitted += new_table.n_pairs
                for s, o in new_table.iter_pairs():
                    for partner in main_sa.objects_of(s):
                        if partner != s:
                            emit(pid, partner, o)
                            emitted += 1
                    for partner in main_sa.objects_of(o):
                        if partner != o:
                            emit(pid, s, partner)
                            emitted += 1
        ctx.count(self.name, emitted)


class ThetaRule(Rule):
    """θ: transitivity via the Nuutila closure machinery (§4.1).

    Special because "transitive closure cannot be performed efficiently
    using iterative rules application": the engine runs a *pre-pass*
    closure before the fixed point (Algorithm 1 line 2), and during
    iterations the rule re-closes a property only when its delta is
    non-empty (or, for PRP-TRP, when a property was newly marked
    transitive), which keeps the fixed point complete when other rules
    derive fresh θ-relevant triples.

    The closed property is the head's predicate; a variable one
    (PRP-TRP) means every property carrying the marker class of the
    body's ⟨?p type M⟩ atom.  ``owl:sameAs`` is closed as the
    equivalence it is (its clique, EQ-SYM included), so the
    substitution rules read a symmetric table.
    """

    def __init__(self, name: str, description: Description,
                 rule_class: str = "theta"):
        super().__init__(name, (description,), rule_class)
        prop = description.head[0][1]
        self.prop = None if is_var(prop) else prop
        self.marker = next(
            (atom[2] for atom in description.body if atom[0] == prop), None
        )
        if self.prop is None and self.marker is None:
            raise _unsupported(name, description)
        self.symmetric = self.prop == "sameAs"

    def _close_property(self, ctx: RuleContext, pid: int) -> int:
        table = table_or_none(ctx.main, pid)
        if table is None:
            return 0
        edges = list(table.iter_pairs())
        if self.symmetric:
            closed = symmetric_transitive_closure_pairs(
                edges, kernels=ctx.kernels
            )
        else:
            closed = closed_pairs(edges, kernels=ctx.kernels)
        ctx.out.extend(pid, closed)
        return len(closed) // 2

    def _properties(self, ctx: RuleContext, changed_only: bool):
        """The property ids to close (those whose input changed, or all)."""
        vocab = ctx.vocab
        if self.prop is not None:
            pid = vocab[self.prop]
            if changed_only and table_or_none(ctx.new, pid) is None:
                return []
            return [pid]
        types = table_or_none(ctx.main, vocab.type)
        if types is None:
            return []
        marker = vocab[self.marker]
        marked = types.subjects_of(marker)
        if not changed_only:
            return marked
        new_types = table_or_none(ctx.new, vocab.type)
        newly_marked = (
            set(new_types.subjects_of(marker)) if new_types is not None else set()
        )
        return [
            p for p in marked
            if p in newly_marked or table_or_none(ctx.new, p) is not None
        ]

    def prepass(self, ctx: RuleContext) -> int:
        """Full closure over the loaded data (engine line 2)."""
        return sum(
            self._close_property(ctx, pid)
            for pid in self._properties(ctx, changed_only=False)
        )

    def recloses(self, ctx: RuleContext):
        return self._properties(ctx, changed_only=True)

    def apply(self, ctx: RuleContext) -> None:
        # Only a run whose pre-pass closed the loaded data reaches
        # iteration 1; delta, DRed and overdelete runs start at 2.
        if ctx.iteration == 1:
            return
        emitted = sum(
            self._close_property(ctx, pid) for pid in self.recloses(ctx)
        )
        ctx.count(self.name, emitted)


def self_fed_rules(rules: Sequence[Rule]) -> Dict[int, str]:
    """Catalogue index → closed schema property S of each rule whose
    next delta may drop its own last output.

    Read off the descriptions.  A rule qualifies when it fires one
    description whose head is the data atom with the join variable
    replaced by the far end of a schema atom S — ⟨a S b⟩ moves the data
    row from a to b (CAX-SCO, PRP-SPO1, SCM-DOM1/2, SCM-RNG1/2) — and a
    :class:`ThetaRule` of the same catalogue closes S.  Then a data row
    d the rule emitted in iteration i−1, from d′ and ⟨a S b⟩, re-derives
    in iteration i only what d′ derives through the composite S row,
    which the closure puts in S: that is already stored, or derived by
    the ΔS leg (never trimmed) when the composite arrives.  By induction
    on the iteration a data row arrived, the closure loses nothing.
    An executor firing several descriptions (EQ-REP-S/P/O) substitutes
    at several positions, which no single composite S row covers.
    """
    closed = {
        rule.prop for rule in rules
        if isinstance(rule, ThetaRule) and rule.prop is not None
    }
    trims: Dict[int, str] = {}
    for index, rule in enumerate(rules):
        if len(rule.descriptions) == 1:
            schema = _self_fed_schema(rule.descriptions[0])
            if schema in closed:
                trims[index] = schema
    return trims


def _self_fed_schema(description: Description):
    """S of a self-feeding description, or None."""
    body, head = description.body, description.head
    if len(body) != 2 or len(head) != 1:
        return None
    for schema, data in (body, body[::-1]):
        subject, prop, obj = schema
        if is_var(prop) or prop == data[1]:
            continue
        for near, far in ((subject, obj), (obj, subject)):
            if near in data and is_var(far) and far not in data:
                if tuple(far if t == near else t for t in data) == head[0]:
                    return prop
    return None
