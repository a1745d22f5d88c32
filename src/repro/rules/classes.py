"""Executors for the Table-5 rule classes (paper §4.4).

Each executor implements one *class* of rules over the vertically
partitioned store; :mod:`repro.rules.table5` instantiates them with the
concrete vocabulary constants.  All joins are sort-merge joins over the
⟨s, o⟩ tables and their cached ⟨o, s⟩ views, exactly as described for
CAX-SCO in the paper's Figure 4.

The bulk passes — the merge joins themselves, pair intersections,
component swaps, distinct-key scans and the functional-property
conflict scan — execute on the engine's kernel backend
(``ctx.kernels``; see :mod:`repro.kernels`), so rule firing is
vectorized end to end under the NumPy backend: a join produces one flat
pair array that is handed to the output buffers as a single chunk,
never one Python-level ``emit`` per derived triple.

Semi-naive evaluation.  ``ctx.new`` is the delta Δ of the last merge
and ``ctx.main`` the store M ⊇ Δ.  A two-atom executor runs the legs of
:func:`semi_naive_legs`: Δ ⋈ M and M ⋈ Δ, which cover every derivation
with at least one atom in Δ (Δ ⋈ Δ twice; the merge drops the
duplicates).  On a batch run's first iteration Δ *is* M and the two
legs are one join, so only the first runs.

A rule that re-feeds its own output over a transitively closed schema
property S (CAX-SCO over subClassOf, PRP-SPO1 over subPropertyOf; see
:func:`self_fed_rules`) is handed, from its second iteration on, a Δ
whose data tables no longer hold what it emitted the iteration before:
whatever those rows would derive through an S row is derived anyway —
through the composite S row θ puts in S — by the untrimmed ΔS leg or an
earlier iteration.  S itself is never trimmed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from .spec import Rule, RuleContext, table_or_none
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


def _two_leg_input_size(legs) -> int:
    """Total pair count feeding a two-leg merge-join executor.

    ``legs`` yields ``(table1, table2)`` pairs (``None`` entries are
    skipped); the sum is the quantity the merge joins scan linearly —
    the estimate the executor-selection cost model gates on.
    """
    size = 0
    for table1, table2 in legs:
        if table1 is None or table2 is None:
            continue
        size += table1.n_pairs + table2.n_pairs
    return size


def merge_join_groups(
    view1: Sequence[int],
    view2: Sequence[int],
    callback: Callable[[List[int], List[int]], None],
) -> None:
    """Sort-merge join of two flat views keyed on their even components.

    For every key present in both views, ``callback`` receives the lists
    of odd-position companions (the "rest" variables) from each side.
    Kept as the callback-style reference primitive (and for callers that
    need per-key control); bulk rule execution uses the kernel
    backends' ``merge_join`` instead.
    """
    i = j = 0
    n1 = len(view1)
    n2 = len(view2)
    while i < n1 and j < n2:
        key1 = view1[i]
        key2 = view2[j]
        if key1 < key2:
            i += 2
        elif key1 > key2:
            j += 2
        else:
            i_end = i
            while i_end < n1 and view1[i_end] == key1:
                i_end += 2
            j_end = j
            while j_end < n2 and view2[j_end] == key1:
                j_end += 2
            callback(
                [view1[x] for x in range(i + 1, i_end, 2)],
                [view2[x] for x in range(j + 1, j_end, 2)],
            )
            i = i_end
            j = j_end


class AlphaRule(Rule):
    """α: two-pattern join on subject or object (paper Figure 4).

    Body: ⟨a1, P1, b1⟩ ∧ ⟨a2, P2, b2⟩ sharing exactly one variable, the
    join variable, at position ``pos1`` of pattern 1 and ``pos2`` of
    pattern 2.  Head: ⟨A, OUT, B⟩ where A/B are the two *rest*
    variables ('r1' = pattern 1's non-join variable, 'r2' = pattern 2's).
    """

    rule_class = "alpha"

    def __init__(
        self,
        name: str,
        p1: str,
        pos1: str,
        p2: str,
        pos2: str,
        out: str,
        head_subject: str,
        head_object: str,
    ):
        super().__init__(name)
        if pos1 not in ("s", "o") or pos2 not in ("s", "o"):
            raise ValueError("join positions must be 's' or 'o'")
        if {head_subject, head_object} - {"r1", "r2"}:
            raise ValueError("alpha heads draw from rest variables only")
        self.p1 = p1
        self.pos1 = pos1
        self.p2 = p2
        self.pos2 = pos2
        self.out = out
        self.head_subject = head_subject
        self.head_object = head_object

    def estimate_join_input(self, *, main, new, vocab):
        pid1 = vocab[self.p1]
        pid2 = vocab[self.p2]
        legs = [
            (table_or_none(store1, pid1), table_or_none(store2, pid2))
            for store1, store2 in semi_naive_legs(new, main)
        ]
        return _two_leg_input_size(legs)

    def apply(self, ctx: RuleContext) -> None:
        kernels = ctx.kernels
        pid1 = ctx.vocab[self.p1]
        pid2 = ctx.vocab[self.p2]
        out_pid = ctx.vocab[self.out]
        subject_first = self.head_subject == "r1"
        emitted = 0

        for store1, store2 in semi_naive_legs(ctx.new, ctx.main):
            table1 = table_or_none(store1, pid1)
            table2 = table_or_none(store2, pid2)
            if table1 is None or table2 is None:
                continue
            view1 = table1.pairs if self.pos1 == "s" else table1.os_pairs()
            view2 = table2.pairs if self.pos2 == "s" else table2.os_pairs()
            joined = kernels.merge_join(view1, view2, swap=not subject_first)
            if len(joined):
                ctx.out.extend(out_pid, joined)
                emitted += len(joined) // 2
        ctx.count(self.name, emitted)


class BetaRule(Rule):
    """β: self-join of one table, subject of one side = object of the other.

    SCM-EQC2 / SCM-EQP2: ⟨a, P, b⟩ ∧ ⟨b, P, a⟩ → ⟨a, OUT, b⟩ (and the
    symmetric instantiation ⟨b, OUT, a⟩).  Implemented as one linear
    co-scan of the delta's ⟨s, o⟩ view against main's ⟨o, s⟩ view: the
    composite keys coincide exactly on mutual pairs.
    """

    rule_class = "beta"

    def __init__(self, name: str, prop: str, out: str):
        super().__init__(name)
        self.prop = prop
        self.out = out

    def apply(self, ctx: RuleContext) -> None:
        kernels = ctx.kernels
        pid = ctx.vocab[self.prop]
        out_pid = ctx.vocab[self.out]
        new_table = table_or_none(ctx.new, pid)
        main_table = table_or_none(ctx.main, pid)
        if new_table is None or main_table is None:
            return
        mutual = kernels.intersect(new_table.pairs, main_table.os_pairs())
        if len(mutual):
            ctx.out.extend(out_pid, mutual)
            ctx.out.extend(out_pid, kernels.swap(mutual))
        ctx.count(self.name, len(mutual))


class PropertyCopyRule(Rule):
    """δ (and the table-copy γ): copy one property table into another.

    Driven by a schema table whose rows ⟨x, y⟩ name two properties:
    ``forward`` copies table(x) into y, else table(y) into x; ``reverse``
    swaps each pair while copying (inverseOf heads).  Covers PRP-SPO1,
    PRP-EQP1/2 and PRP-INV1/2.
    """

    rule_class = "delta"

    def __init__(self, name: str, schema: str, forward: bool, reverse: bool):
        super().__init__(name)
        self.schema = schema
        self.forward = forward
        self.reverse = reverse

    def _copy(self, ctx: RuleContext, store, src: int, dst: int) -> int:
        if src == dst and not self.reverse:
            return 0  # copying a table onto itself adds nothing
        table = table_or_none(store, src)
        if table is None:
            return 0
        pairs = table.pairs
        if self.reverse:
            ctx.out.extend(dst, ctx.kernels.swap(pairs))
        else:
            ctx.out.extend(dst, pairs)
        return len(pairs) // 2

    def apply(self, ctx: RuleContext) -> None:
        schema_pid = ctx.vocab[self.schema]
        emitted = 0
        for schema_store, data_store in semi_naive_legs(ctx.new, ctx.main):
            schema = table_or_none(schema_store, schema_pid)
            if schema is None:
                continue
            for x, y in schema.iter_pairs():
                src, dst = (x, y) if self.forward else (y, x)
                emitted += self._copy(ctx, data_store, src, dst)
        ctx.count(self.name, emitted)


class DomainRangeRule(Rule):
    """γ: PRP-DOM / PRP-RNG — type every subject (object) of p with c.

    Body: ⟨p, domain|range, c⟩ ∧ ⟨x, p, y⟩; the second pattern's
    *property* is the first pattern's subject, so the executor iterates
    the schema rows and visits each named property table — cheap in
    practice because "the number of properties is much smaller compared
    to classes and instances."
    """

    rule_class = "gamma"

    def __init__(self, name: str, schema: str, use_subjects: bool):
        super().__init__(name)
        self.schema = schema
        self.use_subjects = use_subjects

    def _emit_types(self, ctx: RuleContext, store, p: int, c: int) -> int:
        table = table_or_none(store, p)
        if table is None:
            return 0
        kernels = ctx.kernels
        if self.use_subjects:
            members = kernels.distinct_evens(table.pairs)
        else:
            members = kernels.distinct_evens(table.os_pairs())
        if not len(members):
            return 0
        ctx.out.extend(
            ctx.vocab.type, kernels.pair_with_constant(members, c)
        )
        return len(members)

    def apply(self, ctx: RuleContext) -> None:
        schema_pid = ctx.vocab[self.schema]
        emitted = 0
        for schema_store, data_store in semi_naive_legs(ctx.new, ctx.main):
            schema = table_or_none(schema_store, schema_pid)
            if schema is None:
                continue
            for p, c in schema.iter_pairs():
                emitted += self._emit_types(ctx, data_store, p, c)
        ctx.count(self.name, emitted)


class SymmetricPropertyRule(Rule):
    """γ: PRP-SYMP — reverse-copy the table of every symmetric property."""

    rule_class = "gamma"

    def __init__(self, name: str = "PRP-SYMP"):
        super().__init__(name)

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        marker = vocab.SymmetricProperty
        emitted = 0
        for type_store, data_store in semi_naive_legs(ctx.new, ctx.main):
            types = table_or_none(type_store, vocab.type)
            if types is None:
                continue
            for p in types.subjects_of(marker):
                table = table_or_none(data_store, p)
                if table is not None:
                    ctx.out.extend(p, ctx.kernels.swap(table.pairs))
                    emitted += table.n_pairs
        ctx.count(self.name, emitted)


class FunctionalPropertyRule(Rule):
    """PRP-FP / PRP-IFP: linear self-joins on (inverse-)functional tables.

    For each marked property whose table (or marking) changed this
    iteration, one scan of the ⟨s, o⟩ (FP) or ⟨o, s⟩ (IFP) view emits a
    sameAs link between *consecutive distinct* conflict values in each
    group — the symmetric-transitive sameAs closure completes the
    clique, preserving the paper's O(k·n) bound.
    """

    rule_class = "functional"

    def __init__(self, name: str, inverse: bool):
        super().__init__(name)
        self.inverse = inverse

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        marker = (
            vocab.InverseFunctionalProperty
            if self.inverse
            else vocab.FunctionalProperty
        )
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
        sameas_pid = vocab.sameAs
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
                ctx.out.extend(sameas_pid, conflicts)
                emitted += len(conflicts) // 2
        ctx.count(self.name, emitted)


class SameAsRule(Rule):
    """same-as: EQ-REP-S / EQ-REP-P / EQ-REP-O in a single loop (§4.4).

    The sameAs table (already symmetric after the θ closure) drives the
    substitution: for each pair ⟨a, b⟩, b's property table is copied to
    a (EQ-REP-P) and every occurrence of b as subject or object in any
    property table re-emits with a substituted (EQ-REP-S / EQ-REP-O),
    via per-table merge joins.

    Both directions run even when ``new is main``: direction 1 replaces
    b by a for each ⟨a, sameAs, b⟩, direction 2 replaces s by its
    partner for each ⟨s, sameAs, partner⟩.  They are mirror images only
    once ``sameAs`` is symmetric-closed, which a custom catalogue
    without EQ-SYM / EQ-TRANS does not guarantee.
    """

    rule_class = "same-as"

    def __init__(self, name: str = "EQ-REP"):
        super().__init__(name)

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

    The engine runs a *pre-pass* closure before the fixed point (the
    paper's Algorithm 1 line 2); during iterations the rule re-closes a
    property only when its delta is non-empty (or, for PRP-TRP, when a
    property was newly marked transitive), which keeps the fixed point
    complete when other rules derive fresh θ-relevant triples.
    """

    rule_class = "theta"

    #: kinds: 'subClassOf' | 'subPropertyOf' | 'sameAs' | 'transitive'
    def __init__(self, name: str, kind: str):
        super().__init__(name)
        if kind not in ("subClassOf", "subPropertyOf", "sameAs", "transitive"):
            raise ValueError(f"unknown theta kind {kind!r}")
        self.kind = kind

    def _close_property(self, ctx: RuleContext, pid: int, symmetric: bool) -> int:
        table = table_or_none(ctx.main, pid)
        if table is None:
            return 0
        edges = list(table.iter_pairs())
        if symmetric:
            closed = symmetric_transitive_closure_pairs(
                edges, kernels=ctx.kernels
            )
        else:
            closed = closed_pairs(edges, kernels=ctx.kernels)
        ctx.out.extend(pid, closed)
        tracer = ctx.main.tracer
        if tracer is not None:
            # Nuutila's temporary layout: one streaming pass over the
            # edges plus a sequential write of the closed pair array.
            tracer.sequential_scan(("closure", pid), 16 * len(edges))
            tracer.sequential_scan(("closure", pid), 8 * len(closed))
        return len(closed) // 2

    def prepass(self, ctx: RuleContext) -> int:
        """Full closure over the loaded data (engine line 2)."""
        vocab = ctx.vocab
        if self.kind == "sameAs":
            return self._close_property(ctx, vocab.sameAs, symmetric=True)
        if self.kind in ("subClassOf", "subPropertyOf"):
            return self._close_property(ctx, vocab[self.kind], symmetric=False)
        # transitive: every property marked owl:TransitiveProperty.
        emitted = 0
        types = table_or_none(ctx.main, vocab.type)
        if types is None:
            return 0
        for p in types.subjects_of(vocab.TransitiveProperty):
            emitted += self._close_property(ctx, p, symmetric=False)
        return emitted

    def apply(self, ctx: RuleContext) -> None:
        if ctx.iteration == 1 and ctx.theta_prepass_done:
            return  # pre-pass already closed the loaded data
        vocab = ctx.vocab
        emitted = 0
        if self.kind == "sameAs":
            if table_or_none(ctx.new, vocab.sameAs) is not None:
                emitted = self._close_property(ctx, vocab.sameAs, symmetric=True)
        elif self.kind in ("subClassOf", "subPropertyOf"):
            pid = vocab[self.kind]
            if table_or_none(ctx.new, pid) is not None:
                emitted = self._close_property(ctx, pid, symmetric=False)
        else:
            main_types = table_or_none(ctx.main, vocab.type)
            if main_types is None:
                return
            new_types = table_or_none(ctx.new, vocab.type)
            newly_marked = (
                set(new_types.subjects_of(vocab.TransitiveProperty))
                if new_types is not None
                else set()
            )
            for p in main_types.subjects_of(vocab.TransitiveProperty):
                if p in newly_marked or table_or_none(ctx.new, p) is not None:
                    emitted += self._close_property(ctx, p, symmetric=False)
        ctx.count(self.name, emitted)


class IterativeTransitivityRule(Rule):
    """Ablation-only θ variant: transitivity as an iterative self-join.

    Derives ⟨a, P, c⟩ from ⟨a, P, b⟩ ∧ ⟨b, P, c⟩ with a per-iteration
    sort-merge self-join instead of the Nuutila pre-pass — the strategy
    the paper argues *against* ("transitive closure cannot be performed
    efficiently using iterative rules application since duplicate
    generation rapidly degrades performance").  Used by
    ``benchmarks/bench_ablation_closure.py`` to quantify that claim
    inside the same engine.
    """

    rule_class = "theta-iterative"

    def __init__(self, name: str, prop: str):
        super().__init__(name)
        self.prop = prop

    def estimate_join_input(self, *, main, new, vocab):
        pid = vocab[self.prop]
        legs = [
            (table_or_none(left, pid), table_or_none(right, pid))
            for left, right in semi_naive_legs(new, main)
        ]
        return _two_leg_input_size(legs)

    def apply(self, ctx: RuleContext) -> None:
        pid = ctx.vocab[self.prop]
        emitted = 0
        for left_store, right_store in semi_naive_legs(ctx.new, ctx.main):
            left = table_or_none(left_store, pid)
            right = table_or_none(right_store, pid)
            if left is None or right is None:
                continue
            # join var b: object of the left pattern, subject of the right.
            joined = ctx.kernels.merge_join(left.os_pairs(), right.pairs)
            if len(joined):
                ctx.out.extend(pid, joined)
                emitted += len(joined) // 2
        ctx.count(self.name, emitted)


class TrivialTypeExpandRule(Rule):
    """Single-antecedent rules keyed on ⟨x, rdf:type, MARKER⟩.

    ``heads`` are templates (subject_spec, out_property, object_spec)
    where a spec is the variable ``'x'`` or a vocabulary constant name.
    Covers SCM-CLS, SCM-DP, SCM-OP, RDFS6/8/10/12/13.
    """

    rule_class = "trivial"

    def __init__(self, name: str, marker: str, heads):
        super().__init__(name)
        self.marker = marker
        self.heads = heads

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        new_types = table_or_none(ctx.new, vocab.type)
        if new_types is None:
            return
        subjects = new_types.subjects_of(vocab[self.marker])
        if not subjects:
            return
        emit = ctx.out.emit
        emitted = 0
        for x in subjects:
            for subject_spec, out, object_spec in self.heads:
                s = x if subject_spec == "x" else vocab[subject_spec]
                o = x if object_spec == "x" else vocab[object_spec]
                emit(vocab[out], s, o)
                emitted += 1
        ctx.count(self.name, emitted)


class TrivialCopyRule(Rule):
    """Single-antecedent rules keyed on one schema table's rows ⟨a, b⟩.

    ``heads`` templates use 'a' / 'b' or vocabulary constant names.
    Covers EQ-SYM, SCM-EQC1 and SCM-EQP1.
    """

    rule_class = "trivial"

    def __init__(self, name: str, src: str, heads):
        super().__init__(name)
        self.src = src
        self.heads = heads

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        table = table_or_none(ctx.new, vocab[self.src])
        if table is None:
            return
        emit = ctx.out.emit
        emitted = 0
        for a, b in table.iter_pairs():
            for subject_spec, out, object_spec in self.heads:
                if subject_spec == "a":
                    s = a
                elif subject_spec == "b":
                    s = b
                else:
                    s = vocab[subject_spec]
                if object_spec == "a":
                    o = a
                elif object_spec == "b":
                    o = b
                else:
                    o = vocab[object_spec]
                emit(vocab[out], s, o)
                emitted += 1
        ctx.count(self.name, emitted)


class ResourceRule(Rule):
    """RDFS4 (a+b): every subject and object is an rdfs:Resource."""

    rule_class = "trivial"

    def __init__(self, name: str = "RDFS4"):
        super().__init__(name)

    def apply(self, ctx: RuleContext) -> None:
        vocab = ctx.vocab
        kernels = ctx.kernels
        type_pid = vocab.type
        resource = vocab.Resource
        emitted = 0
        for pid in ctx.new.property_ids():
            table = ctx.new.table(pid)
            subjects = kernels.distinct_evens(table.pairs)
            objects = kernels.distinct_evens(table.os_pairs())
            if len(subjects):
                ctx.out.extend(
                    type_pid, kernels.pair_with_constant(subjects, resource)
                )
            if len(objects):
                ctx.out.extend(
                    type_pid, kernels.pair_with_constant(objects, resource)
                )
            emitted += len(subjects) + len(objects)
        ctx.count(self.name, emitted)


def self_fed_rules(rules: Sequence[Rule]) -> Dict[int, str]:
    """Catalogue index → closed schema property S of each rule whose
    next delta may drop its own last output.

    Decided from executor shape alone.  Two shapes re-feed their own
    output over a schema property S:

    * an :class:`AlphaRule` joining an S atom with a data atom and
      writing into the data atom's property, with the data atom's other
      variable kept in place and S's far end replacing the join
      variable (CAX-SCO, SCM-DOM1/2, SCM-RNG1/2);
    * a forward, non-reversing :class:`PropertyCopyRule` over S
      (PRP-SPO1).

    Either qualifies only when a :class:`ThetaRule` of the same
    catalogue closes S.  Then a data row d the rule emitted in
    iteration i−1, from d′ and ⟨a S b⟩, re-derives in iteration i only
    what d′ derives through the composite S row, which the closure puts
    in S: that is already stored, or derived by the ΔS leg (never
    trimmed) when the composite arrives.  By induction on the iteration
    a data row arrived, the closure loses nothing.
    """
    closed = {
        rule.kind
        for rule in rules
        if isinstance(rule, ThetaRule) and rule.kind != "transitive"
    }
    trims: Dict[int, str] = {}
    for index, rule in enumerate(rules):
        schema = None
        if isinstance(rule, AlphaRule):
            schema = _alpha_schema(rule)
        elif isinstance(rule, PropertyCopyRule):
            if rule.forward and not rule.reverse:
                schema = rule.schema
        if schema in closed:
            trims[index] = schema
    return trims


def _alpha_schema(rule: AlphaRule) -> Optional[str]:
    """The schema atom's property of a self-feeding α shape, or None."""
    atoms = ((rule.p1, "r1"), (rule.p2, "r2"))
    positions = (rule.pos1, rule.pos2)
    for schema_at, data_at in ((0, 1), (1, 0)):
        schema, schema_rest = atoms[schema_at]
        data, data_rest = atoms[data_at]
        if data == schema or rule.out != data:
            continue
        head = (
            (schema_rest, data_rest)
            if positions[data_at] == "s"
            else (data_rest, schema_rest)
        )
        if head == (rule.head_subject, rule.head_object):
            return schema
    return None
