"""Query rewrite: a virtual triple view over the reduced closure.

:class:`HybridTripleView` duck-types the read surface of
:class:`repro.store.triple_store.TripleStore` (``n_triples``,
``triples()``, ``in``, the column accessor) over the *reduced* closure
a hybrid flush stores, composing the hierarchy encoding in so every
read sees the same answers the fully materialized closure would give
— without those triples existing.  ``repro.Store`` routes its reads,
snapshots and BGP evaluation through this object: :mod:`repro.query.bgp`
reads id columns through the same ``columns()`` / ``table_size()`` /
``property_ids()`` accessor the stored tables answer, so it is the
same evaluator in both modes.

Virtual table semantics (S = stored tables, reach sets from
:class:`~repro.litemat.encoder.HierarchyEncoding`; each expansion is
active only when its plan flag — i.e. its absorbed rule — is on):

* ``rdfs:subClassOf``  = the reach relation of the class graph (rdfs11)
* ``rdfs:subPropertyOf`` = the reach relation of the property graph
  (rdfs5)
* ``rdf:type``         = S[type] with each subject's classes expanded
  through their superclass sets (rdfs9 / CAX-SCO)
* ``rdfs:domain/range`` = S rows expanded down the property lattice
  (SCM-DOM2/RNG2) and up the class lattice (SCM-DOM1/RNG1)
* data property *p*    = ∪ S[q] for q in the inclusive sub-property
  set of p (rdfs7 / PRP-SPO1)

Bound lookups stay index-shaped: bound-subject reads use the stored
tables' binary searches plus schema-sized expansions; bound-object
reads over ``rdf:type`` filter the stored class candidates through the
encoder's interval sets with ``KernelBackend.select_in_ranges`` (the
id-range test of the paper's interval encoding); full enumerations are
computed per property id and cached (the cache is shared with
snapshot views taken over the same arrays).
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterator, List, Optional, Tuple

from .encoder import HierarchyEncoding
from .planner import HybridPlan

EncodedTriple = Tuple[int, int, int]


class HybridTripleView:
    """Read-only composition of a reduced closure and its encoding."""

    def __init__(
        self,
        tables,
        encoding: HierarchyEncoding,
        plan: HybridPlan,
        vocab,
        kernels,
        _state: Optional[dict] = None,
    ):
        self._tables = tables
        self._encoding = encoding
        self._plan = plan
        self._kernels = kernels
        self._type_id = vocab.type
        self._sc_id = vocab.subClassOf
        self._sp_id = vocab.subPropertyOf
        self._dom_id = vocab.domain
        self._rng_id = vocab.range
        self._vocab = vocab
        # Enumeration caches, shared across share_view() aliases (the
        # underlying arrays are identical, and a view is never mutated —
        # the engine builds a fresh view on every flush).
        self._state = (
            _state
            if _state is not None
            else {"pairs": {}, "pids": None, "n": None}
        )

    # -- TripleStore surface -------------------------------------------
    def share_view(self) -> "HybridTripleView":
        """A frozen alias over shared pair arrays (snapshot reads)."""
        return HybridTripleView(
            self._tables.share_view(),
            self._encoding,
            self._plan,
            self._vocab,
            self._kernels,
            _state=self._state,
        )

    @property
    def n_triples(self) -> int:
        if self._state["n"] is None:
            self._state["n"] = sum(
                len(self._virtual_pairs(pid)) for pid in self._virtual_pids()
            )
        return self._state["n"]

    def triples(self) -> Iterator[EncodedTriple]:
        """Every virtual (s, p, o), properties in ascending-id order."""
        for pid in self._virtual_pids():
            for s, o in self._virtual_pairs(pid):
                yield (s, pid, o)

    def __contains__(self, encoded: EncodedTriple) -> bool:
        s, pid, o = encoded
        return self._contains(s, pid, o)

    # -- id columns (the BGP evaluator's accessor) ----------------------
    @property
    def kernels(self):
        """The kernel backend the stored tables execute on."""
        return self._kernels

    def property_ids(self) -> List[int]:
        """Ids of every property with a (possibly virtual) row."""
        return self._virtual_pids()

    def table_size(self, property_id: int) -> int:
        """Number of virtual rows of one property."""
        return len(self._virtual_pairs(property_id))

    def present(self, property_id: int, subjects, objects):
        """Indices of the ⟨subjects[i], objects[i]⟩ that are virtual rows
        of one property: the contract of :meth:`TripleStore.present`,
        one interval-backed :meth:`_contains` per pair (no table is
        enumerated)."""
        contains = self._contains
        return self._kernels.concat([array("q", [
            i for i, (s, o) in enumerate(zip(subjects.tolist(), objects.tolist()))
            if contains(s, property_id, o)
        ])])

    def columns(
        self,
        property_id: int,
        key: Optional[int] = None,
        *,
        by_object: bool = False,
    ):
        """One virtual property's rows as a decoded flat pair array:
        the contract of :meth:`TripleStore.columns`, answered from the
        encoding.  A keyed lookup wraps the interval-backed
        :meth:`_objects_of` / :meth:`_subjects_of` (a class constant
        stays a ``select_in_ranges`` scan); a whole table is the cached
        enumeration, flattened once per view and order.
        """
        kernels = self._kernels
        if key is not None:
            lookup = self._subjects_of if by_object else self._objects_of
            return kernels.pair_with_constant(
                lookup(property_id, key), key, constant_as_object=False
            )
        cache_key = ("columns", property_id, by_object)
        flat = self._state.get(cache_key)
        if flat is None:
            if by_object:
                flat = kernels.os_view(self.columns(property_id))
            else:
                flat = array(
                    "q", chain.from_iterable(self._virtual_pairs(property_id))
                )
            flat = kernels.concat([flat])
            self._state[cache_key] = flat
        return flat

    # -- virtual property-id universe ----------------------------------
    def _stored(self, pid: int):
        table = self._tables.table(pid)
        if table is None or not table.n_pairs:
            return None
        return table

    def _specials(self) -> frozenset:
        return frozenset(
            (self._type_id, self._sc_id, self._sp_id, self._dom_id,
             self._rng_id)
        )

    def _virtual_pids(self) -> List[int]:
        if self._state["pids"] is None:
            specials = self._specials()
            pids = {
                pid
                for pid in self._tables.property_ids()
                if self._stored(pid) is not None
            }
            if self._plan.copy_data:
                # A super-property with no stored rows of its own still
                # gets a virtual table from its descendants' data.
                for pid in list(pids):
                    if pid in specials:
                        continue
                    for sup in self._encoding.superproperties(pid):
                        if sup not in specials:
                            pids.add(sup)
            self._state["pids"] = sorted(pids)
        return self._state["pids"]

    # -- full enumerations (cached per pid) -----------------------------
    def _virtual_pairs(self, pid: int) -> List[Tuple[int, int]]:
        cached = self._state["pairs"].get(pid)
        if cached is None:
            cached = self._compute_pairs(pid)
            self._state["pairs"][pid] = cached
        return cached

    def _compute_pairs(self, pid: int) -> List[Tuple[int, int]]:
        plan = self._plan
        if pid == self._sc_id and plan.close_subclass:
            return self._reach_pairs(self._encoding.classes_up)
        if pid == self._sp_id and plan.close_subproperty:
            return self._reach_pairs(self._encoding.props_up)
        if pid == self._type_id and plan.expand_type:
            return self._expanded_type_pairs()
        if pid == self._dom_id:
            return self._expanded_schema_pairs(
                pid,
                plan.expand_domain_properties,
                plan.expand_domain_classes,
            )
        if pid == self._rng_id:
            return self._expanded_schema_pairs(
                pid,
                plan.expand_range_properties,
                plan.expand_range_classes,
            )
        if plan.copy_data and pid not in self._specials():
            return self._data_union_pairs(pid)
        table = self._stored(pid)
        if table is None:
            return []
        return list(table.iter_pairs())

    def _reach_pairs(self, index) -> List[Tuple[int, int]]:
        originals = index.original_of_closure
        out: List[Tuple[int, int]] = []
        for node in index.nodes():
            reachable = index.reach_of(node)
            if not reachable:
                continue
            for cid in reachable:
                out.append((node, originals[cid]))
        out.sort()
        return out

    def _expanded_type_pairs(self) -> List[Tuple[int, int]]:
        table = self._stored(self._type_id)
        if table is None:
            return []
        superclass_set = self._encoding.superclass_set
        out: List[Tuple[int, int]] = []
        current_subject = None
        classes: set = set()

        def emit():
            expanded: set = set()
            for cls in classes:
                expanded |= superclass_set(cls)
            out.extend(
                (current_subject, cls) for cls in sorted(expanded)
            )

        for s, c in table.iter_pairs():
            if s != current_subject:
                if current_subject is not None:
                    emit()
                current_subject = s
                classes = set()
            classes.add(c)
        if current_subject is not None:
            emit()
        return out

    def _expanded_schema_pairs(
        self, pid: int, expand_properties: bool, expand_classes: bool
    ) -> List[Tuple[int, int]]:
        table = self._stored(pid)
        if table is None:
            return []
        encoding = self._encoding
        rows: set = set()
        for p, c in table.iter_pairs():
            props = (
                encoding.subproperty_set(p) if expand_properties else (p,)
            )
            classes = (
                encoding.superclass_set(c) if expand_classes else (c,)
            )
            rows.update((q, d) for q in props for d in classes)
        return sorted(rows)

    def _data_members(self, pid: int) -> List[int]:
        """Stored sub-properties (inclusive) contributing to pid's data."""
        members = [q for q in self._encoding.subproperty_set(pid)
                   if self._stored(q) is not None]
        members.sort()
        return members

    def _data_union_pairs(self, pid: int) -> List[Tuple[int, int]]:
        members = self._data_members(pid)
        if not members:
            return []
        if members == [pid]:
            return list(self._stored(pid).iter_pairs())
        kernels = self._kernels
        # tolist(): compressed pair arrays do not take strided slices.
        flat = kernels.sort_pairs(
            kernels.concat(
                [self._stored(q).pairs for q in members]
            ),
            dedup=True,
        ).tolist()
        return list(zip(flat[0::2], flat[1::2]))

    # -- bound lookups --------------------------------------------------
    def _contains(self, s: int, pid: int, o: int) -> bool:
        plan = self._plan
        if pid == self._sc_id and plan.close_subclass:
            return self._encoding.is_subclass(s, o)
        if pid == self._sp_id and plan.close_subproperty:
            return self._encoding.is_subproperty(s, o)
        if pid == self._type_id and plan.expand_type:
            table = self._stored(pid)
            if table is None:
                return False
            is_subclass = self._encoding.is_subclass
            return any(
                c == o or is_subclass(c, o) for c in table.objects_of(s)
            )
        if pid in (self._dom_id, self._rng_id):
            return (s, o) in self._schema_row_set(pid)
        if plan.copy_data and pid not in self._specials():
            return any(
                self._stored(q).contains(s, o)
                for q in self._data_members(pid)
            )
        table = self._stored(pid)
        return table is not None and table.contains(s, o)

    def _schema_row_set(self, pid: int) -> set:
        key = ("schema_set", pid)
        cached = self._state.get(key)
        if cached is None:
            cached = set(self._virtual_pairs(pid))
            self._state[key] = cached
        return cached

    def _objects_of(self, pid: int, s: int) -> List[int]:
        plan = self._plan
        if pid == self._sc_id and plan.close_subclass:
            return sorted(self._encoding.superclasses(s))
        if pid == self._sp_id and plan.close_subproperty:
            return sorted(self._encoding.superproperties(s))
        if pid == self._type_id and plan.expand_type:
            table = self._stored(pid)
            if table is None:
                return []
            expanded: set = set()
            for c in table.objects_of(s):
                expanded |= self._encoding.superclass_set(c)
            return sorted(expanded)
        if pid in (self._dom_id, self._rng_id):
            return sorted(
                o for q, o in self._schema_row_set(pid) if q == s
            )
        if plan.copy_data and pid not in self._specials():
            objects: set = set()
            for q in self._data_members(pid):
                objects.update(self._stored(q).objects_of(s))
            return sorted(objects)
        table = self._stored(pid)
        if table is None:
            return []
        return list(table.objects_of(s))

    def _subjects_of(self, pid: int, o: int) -> List[int]:
        plan = self._plan
        if pid == self._sc_id and plan.close_subclass:
            return sorted(self._encoding.subclasses(o))
        if pid == self._sp_id and plan.close_subproperty:
            return sorted(self._encoding.subproperties(o))
        if pid == self._type_id and plan.expand_type:
            return self._type_subjects_of(o)
        if pid in (self._dom_id, self._rng_id):
            return sorted(
                q for q, c in self._schema_row_set(pid) if c == o
            )
        if plan.copy_data and pid not in self._specials():
            subjects: set = set()
            for q in self._data_members(pid):
                subjects.update(self._stored(q).subjects_of(o))
            return sorted(subjects)
        table = self._stored(pid)
        if table is None:
            return []
        return list(table.subjects_of(o))

    def _type_subjects_of(self, cls: int) -> List[int]:
        """Instances of ``cls``: subjects stored under any subclass.

        The interval membership test of the paper's encoding: stored
        class candidates map to closure ids of the *down* index and are
        filtered against ``cls``'s interval set in one vectorizable
        pass (``select_in_ranges``).
        """
        table = self._stored(self._type_id)
        if table is None:
            return []
        down = self._encoding.classes_down
        candidates = list(self._kernels.distinct_evens(table.os_pairs()))
        matching: List[int] = []
        reachable = down.reach_of(cls)
        if reachable is not None:
            cid_of = down.closure_id_of
            cid_to_class = {}
            cids = []
            for c in candidates:
                cid = cid_of.get(c)
                if cid is not None:
                    cid_to_class[cid] = c
                    cids.append(cid)
            cids.sort()
            selected = self._kernels.select_in_ranges(
                cids, reachable.intervals()
            )
            matching = [cid_to_class[cid] for cid in selected]
        if cls in candidates:
            matching.append(cls)
        subjects: set = set()
        for c in matching:
            subjects.update(table.subjects_of(c))
        return sorted(subjects)
