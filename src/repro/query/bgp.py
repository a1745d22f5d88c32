"""Basic-graph-pattern matching over a materialized engine.

The paper's case for materialization: "inferred data can be consumed as
explicit data without integrating the inference engine with the runtime
query engine."  This module is that consumer — a small conjunctive
(SPARQL-BGP-style) query evaluator that runs over the *closed* store,
needing no inference of its own.

Evaluation is set-at-a-time over encoded ids, on the sorted ⟨s, o⟩ /
⟨o, s⟩ columns the store keeps for merge joins:

* constants are resolved to ids once (a never-encoded constant means
  no solutions);
* every pattern's exact cardinality is read off the tables — the length
  of a ``key_slice`` for a bound subject or object, the table size
  otherwise — and patterns are taken smallest first, one that shares a
  variable with what is already bound before one that does not;
* a columnar binding table (one id column per variable) is extended per
  pattern with the store's :class:`~repro.kernels.KernelBackend`:
  a ``merge_join`` whose companions on the bound side are row numbers,
  or one ``key_slice`` probe per bound row when the bound side is small
  next to the table (:func:`_use_probes`); a pattern whose subject
  and object are both bound filters the rows, one binary search per
  row in the table's sorted view (the view's ``present``), with no
  pass over the table;
* the result is a :class:`SolutionTable` of id columns; terms are
  decoded only for the rows a caller asks for.

Hybrid mode (:mod:`repro.litemat`) composes *beneath* this module: the
read view handed in answers the same column accessor
(``columns(property_id, key, by_object=…)``) from its interval
encoding, so nothing here changes per mode or per backend.

Variables are :class:`Var` instances (``Var("x")`` or the ``?name``
shorthand of :func:`parse_pattern`).  Solution order is deterministic
for a given snapshot and query, and otherwise unspecified.

The :class:`repro.Store` facade folds this evaluator into its unified
``query()`` entry point — ``store.query("?s rdf:type ex:Person")``
parses via :func:`parse_bgp` and executes here, and the pattern form
``query(s, p, o)`` is one pattern through the same evaluator
(:func:`match`).
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..rdf.terms import IRI, BlankNode, Literal, Term, Triple
from ..rdf.vocabulary import OWL, RDF, RDFS, XSD


@dataclass(frozen=True)
class Var:
    """A query variable (named, compared by name)."""

    name: str

PatternTerm = Union[Var, Term]
Bindings = Dict[Var, Term]


@dataclass(frozen=True)
class TriplePattern:
    """One BGP triple pattern: any position may be a Var or a term."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> List[Var]:
        """Variables of this pattern, in position order."""
        return [
            t
            for t in (self.subject, self.predicate, self.object)
            if isinstance(t, Var)
        ]


def parse_pattern(
    subject: Union[str, Term],
    predicate: Union[str, Term],
    obj: Union[str, Term],
) -> TriplePattern:
    """Convenience constructor: ``"?x"`` strings become variables,
    other strings become IRIs, terms pass through."""

    def convert(value: Union[str, Term]) -> PatternTerm:
        if isinstance(value, str):
            if value.startswith("?"):
                return Var(value[1:])
            return IRI(value)
        return value

    return TriplePattern(convert(subject), convert(predicate), convert(obj))


class BGPSyntaxError(ValueError):
    """Raised by :func:`parse_bgp` on malformed pattern text."""


#: Well-known prefixes expanded by :func:`parse_bgp`.
BGP_PREFIXES: Dict[str, str] = {
    "rdf": RDF.prefix,
    "rdfs": RDFS.prefix,
    "owl": OWL.prefix,
    "xsd": XSD.prefix,
}

_BGP_TOKEN = re.compile(
    r'<[^<>\s]*>'                                   # <iri>
    r'|"(?:[^"\\]|\\.)*"(?:\^\^<[^<>\s]*>|@[\w-]+)?'  # "literal"^^<dt> / @lang
    r'|\S+'                                         # var / prefixed / bare
)

_LITERAL_UNESCAPES = [
    ("\\n", "\n"), ("\\r", "\r"), ("\\t", "\t"),
    ('\\"', '"'), ("\\\\", "\\"),
]


def _bgp_term(token: str) -> PatternTerm:
    """One BGP token → Var or RDF term (see :func:`parse_bgp`)."""
    if token.startswith("?"):
        if len(token) == 1:
            raise BGPSyntaxError("'?' without a variable name")
        return Var(token[1:])
    if token == "a":  # the SPARQL/Turtle shorthand
        return RDF.type
    if token.startswith("<") and token.endswith(">"):
        return IRI(token[1:-1])
    if token.startswith('"'):
        match = re.fullmatch(
            r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^<>\s]*)>|@([\w-]+))?', token
        )
        if match is None:
            raise BGPSyntaxError(f"malformed literal {token!r}")
        lexical, datatype, language = match.groups()
        for escaped, plain in _LITERAL_UNESCAPES:
            lexical = lexical.replace(escaped, plain)
        return Literal(lexical, datatype, language)
    prefix, colon, local = token.partition(":")
    if colon and prefix in BGP_PREFIXES:
        return IRI(BGP_PREFIXES[prefix] + local)
    # Anything else is taken verbatim as an IRI — the test/example
    # corpus uses compact "ex:name" IRIs that are literal strings.
    return IRI(token)


def parse_bgp(text: str) -> List[TriplePattern]:
    """Parse a BGP string like ``"?s rdf:type ex:Person"`` into patterns.

    Grammar (a pragmatic SPARQL-BGP subset): whitespace-separated
    triples of tokens, with statements separated by ``.`` (a lone dot
    token, a trailing dot on a token, or a newline at a statement
    boundary).  Tokens: ``?name`` variables, ``<iri>`` references,
    ``"literal"`` (optionally ``^^<datatype>`` or ``@lang``),
    ``prefix:local`` with the well-known prefixes of
    :data:`BGP_PREFIXES`, the ``a`` shorthand for ``rdf:type``, and
    bare strings (taken verbatim as IRIs).

    >>> parse_bgp("?s rdf:type ex:Person")
    [TriplePattern(subject=Var(name='s'), predicate=IRI(value='http://www.w3.org/1999/02/22-rdf-syntax-ns#type'), object=IRI(value='ex:Person'))]
    """
    tokens: List[str] = []
    for raw in _BGP_TOKEN.findall(text):
        if raw == ".":
            tokens.append(".")
            continue
        # A trailing dot on a bare/prefixed token terminates a statement
        # (IRIs in angle brackets and literals keep their dots).
        if (
            raw.endswith(".")
            and not raw.startswith(("<", '"'))
            and len(raw) > 1
        ):
            tokens.append(raw[:-1])
            tokens.append(".")
        else:
            tokens.append(raw)

    patterns: List[TriplePattern] = []
    current: List[PatternTerm] = []
    for token in tokens:
        if token == ".":
            if current:
                raise BGPSyntaxError(
                    f"statement has {len(current)} term(s), expected 3: "
                    f"{text!r}"
                )
            continue
        current.append(_bgp_term(token))
        if len(current) == 3:
            patterns.append(TriplePattern(*current))
            current = []
    if current:
        raise BGPSyntaxError(
            f"trailing {len(current)} term(s) do not form a triple "
            f"pattern: {text!r}"
        )
    if not patterns:
        raise BGPSyntaxError(f"no triple patterns found in {text!r}")
    return patterns


# ----------------------------------------------------------------------
# Set-at-a-time evaluation over encoded ids
# ----------------------------------------------------------------------
#: One position of a pattern at the id level: a variable's name, or the
#: dictionary id of a constant.
_Position = Union[str, int]

#: Table rows one per-row lookup is worth in a merge join.  The join
#: passes over the whole table, a lookup binary-searches it: measured on
#: the numpy kernels a lookup is ≈2 µs and the join ≈5–8 ns a table row
#: (the interpreted kernels cross over earlier and lose little here).
_ROWS_PER_PROBE = 256


def _use_probes(n_bound: int, n_rows: int) -> bool:
    """Extend ``n_bound`` binding rows by one lookup each rather than a
    merge join over ``n_rows`` table rows: only when the bound side is
    small next to the table."""
    return n_bound * _ROWS_PER_PROBE < n_rows


class SolutionTable:
    """BGP solutions as id columns: one column per variable, one row
    per solution, ``len()`` the number of solutions.

    Nothing is decoded until asked: :meth:`head` cuts rows and
    :meth:`distinct` projects and de-duplicates on ids, so a caller
    pays the dictionary only for the terms it returns.
    """

    __slots__ = ("variables", "columns", "_n", "_dictionary")

    def __init__(self, variables, columns, n: int, dictionary):
        #: Variable names, one per column.
        self.variables: Tuple[str, ...] = tuple(variables)
        #: Id columns (``array('q')`` or ``ndarray``), each ``n`` long.
        self.columns: List = list(columns)
        self._n = n
        self._dictionary = dictionary

    def __len__(self) -> int:
        return self._n

    def column(self, name: str):
        """The id column of one variable."""
        return self.columns[self.variables.index(name)]

    def head(self, limit: int) -> "SolutionTable":
        """The first ``limit`` solutions."""
        if limit >= self._n:
            return self
        return self.window(0, limit)

    def window(self, start: int, stop: int) -> "SolutionTable":
        """The solutions from row ``start`` up to, not including,
        ``stop``, which is cut at the end of the table."""
        stop = min(stop, self._n)
        return SolutionTable(
            self.variables,
            [column[start:stop] for column in self.columns],
            stop - start,
            self._dictionary,
        )

    def distinct(self, names: Sequence[str]) -> "SolutionTable":
        """The projection on ``names``, duplicate rows dropped by id,
        first-seen order kept."""
        if not names:
            return SolutionTable((), [], min(self._n, 1), self._dictionary)
        rows = dict.fromkeys(
            zip(*(self.column(name).tolist() for name in names))
        )
        columns = [array("q", column) for column in zip(*rows)]
        return SolutionTable(
            names,
            columns or [array("q") for _ in names],
            len(rows),
            self._dictionary,
        )

    def term_rows(self) -> Iterator[Tuple[Term, ...]]:
        """Every solution decoded, as a tuple in :attr:`variables` order."""
        if not self.columns:
            return iter([()] * self._n)
        decode = self._dictionary.decode_column
        return zip(*(decode(column.tolist()) for column in self.columns))

    def bindings(self) -> List[Dict[str, Term]]:
        """Every solution decoded, as a ``{variable name: Term}`` dict."""
        names = self.variables
        return [dict(zip(names, row)) for row in self.term_rows()]


def _id_view(source):
    """The read view (id tables) and dictionary behind an
    :class:`InferrayEngine`, a ``Store`` or a ``Snapshot``."""
    facade_view = getattr(source, "_view", None)
    if facade_view is None:
        return source.read_view, source.dictionary
    tables, dictionary, _ = facade_view()
    return tables, dictionary


def _substitute(position: _Position, p: _Position, pid: int) -> _Position:
    """``position`` once the predicate ``p`` is the property ``pid``:
    the id wherever the predicate's variable stands."""
    return pid if position == p else position


class _Evaluation:
    """One query run: a binding table extended pattern by pattern."""

    def __init__(self, view, dictionary):
        self.view = view
        self.kernels = view.kernels
        self.dictionary = dictionary
        #: Keyed lookups of this run: the slice that gave a pattern its
        #: cardinality is the one its evaluation reads.
        self._slices: Dict[Tuple[int, int, bool], object] = {}

    def table(self, variables, columns, n: int) -> SolutionTable:
        return SolutionTable(variables, columns, n, self.dictionary)

    def slice(self, pid: int, key: int, by_object: bool = False):
        """``view.columns(pid, key, by_object=…)``, once per run."""
        rows = self._slices.get((pid, key, by_object))
        if rows is None:
            rows = self.view.columns(pid, key, by_object=by_object)
            self._slices[pid, key, by_object] = rows
        return rows

    def cardinality(self, s: _Position, p: _Position, o: _Position) -> int:
        """Exact number of triples matching one pattern on its own (an
        upper bound when one variable fills both subject and object)."""
        view = self.view
        total = 0
        for pid in (p,) if isinstance(p, int) else view.property_ids():
            s_here, o_here = _substitute(s, p, pid), _substitute(o, p, pid)
            if isinstance(s_here, int) and isinstance(o_here, int):
                total += (s_here, pid, o_here) in view
            elif isinstance(s_here, int):
                total += len(self.slice(pid, s_here)) // 2
            elif isinstance(o_here, int):
                total += len(self.slice(pid, o_here, True)) // 2
            else:
                total += view.table_size(pid)
        return total

    def order(
        self, compiled: List[Tuple[_Position, ...]], bound: Sequence[str] = ()
    ) -> List[int]:
        """Evaluation order: greedily the smallest exact cardinality,
        among the patterns that share a variable with those taken or
        ``bound`` (or have none) while there is one — a cross product
        only when nothing connected is left."""
        if len(compiled) == 1:
            return [0]
        cardinality = [self.cardinality(*pattern) for pattern in compiled]
        variables = [
            {position for position in pattern if isinstance(position, str)}
            for pattern in compiled
        ]
        remaining = list(range(len(compiled)))
        bound = set(bound)
        order = []
        while remaining:
            connected = [
                i for i in remaining
                if not variables[i] or variables[i] & bound
            ]
            best = min(connected or remaining, key=cardinality.__getitem__)
            remaining.remove(best)
            bound |= variables[best]
            order.append(best)
        return order

    def gather(self, table: SolutionTable, rows) -> SolutionTable:
        take = self.kernels.take
        return self.table(
            table.variables,
            [take(column, rows) for column in table.columns],
            len(rows),
        )

    def groups(self, table: SolutionTable, name: str):
        """``(value, its rows of table)`` per distinct value of one
        column, ascending; rows keep their order."""
        kernels = self.kernels
        keyed = kernels.index_by_key(table.column(name))
        for value in kernels.distinct_evens(keyed):
            start, end = kernels.key_slice(keyed, value)
            rows = keyed[2 * start + 1:2 * end:2]
            yield int(value), self.gather(table, rows)

    def extend(
        self, table: SolutionTable, s: _Position, p: _Position, o: _Position
    ) -> SolutionTable:
        """``table`` ⋈ the triples matching ⟨s, p, o⟩."""
        if isinstance(p, int):
            return self.extend_table(table, p, s, o)
        # A variable predicate is the union, over the tables, of the
        # pattern with that property's id in place of the variable.
        parts = []
        for pid, rows in self.property_groups(table, p):
            part = self.extend_table(
                rows, pid, _substitute(s, p, pid), _substitute(o, p, pid)
            )
            if len(part):
                parts.append((pid, part))
        if not parts:
            return table.head(0)
        kernels = self.kernels
        variables = parts[0][1].variables
        columns = [
            kernels.concat([part.columns[i] for _, part in parts])
            for i in range(len(variables))
        ]
        sizes = [len(part) for _, part in parts]
        if p not in table.variables:
            variables += (p,)
            columns.append(
                kernels.repeat([pid for pid, _ in parts], sizes)
            )
        return self.table(variables, columns, sum(sizes))

    def property_groups(self, table: SolutionTable, p: str):
        """``(property id, its rows of table)`` per table a variable
        predicate ``p`` can name: per distinct value of ``p`` when it is
        bound, every property with the whole table when it is not."""
        property_ids = self.view.property_ids()
        if p not in table.variables:
            return [(pid, table) for pid in property_ids]
        return [
            (pid, rows) for pid, rows in self.groups(table, p)
            if pid in property_ids
        ]

    def extend_group(
        self, rows: SolutionTable, pid: int, s: _Position, p: str,
        o: _Position,
    ) -> SolutionTable:
        """``rows`` ⋈ the triples of one property ``pid`` matching
        ⟨s, p, o⟩ — the pattern with ``pid`` in place of the variable,
        in every position (one term has one id everywhere), and ``p``
        bound to ``pid`` when ``rows`` did not bind it."""
        part = self.extend_table(
            rows, pid, _substitute(s, p, pid), _substitute(o, p, pid)
        )
        if p in part.variables or not len(part):
            return part
        return self.table(
            part.variables + (p,),
            part.columns + [self.kernels.repeat((pid,), (len(part),))],
            len(part),
        )

    def extend_table(
        self, table: SolutionTable, pid: int, s: _Position, o: _Position
    ) -> SolutionTable:
        """``table`` ⋈ the rows of one property matching ⟨s, o⟩."""
        view, kernels = self.view, self.kernels
        if isinstance(s, int) and isinstance(o, int):
            return table if (s, pid, o) in view else table.head(0)
        s_bound = s in table.variables
        o_bound = o in table.variables
        if (s_bound or isinstance(s, int)) and (o_bound or isinstance(o, int)):
            # Both bound (or the same variable twice): a row filter, one
            # lookup per row (the view's ``present``), no pass over the
            # table.
            def column(term):
                if isinstance(term, int):
                    return kernels.repeat((term,), (len(table),))
                return table.column(term)

            return self.gather(table, view.present(pid, column(s), column(o)))
        if not (s_bound or o_bound):
            return self.cross(table, self.scan(pid, s, o))
        # Orient the pattern on its bound variable: ⟨key, other⟩ rows,
        # read from the ⟨s, o⟩ or the ⟨o, s⟩ view accordingly; the
        # other position is a variable the table does not bind.
        by_object = not s_bound
        key, other = (o, s) if by_object else (s, o)
        keys = table.column(key)
        if _use_probes(len(table), view.table_size(pid)):
            rows, companions = self.probe(pid, keys, by_object)
        else:
            joined = kernels.merge_join(
                kernels.index_by_key(keys),
                view.columns(pid, by_object=by_object),
            )
            rows, companions = joined[0::2], joined[1::2]
        extended = self.gather(table, rows)
        extended.variables += (other,)
        extended.columns.append(companions)
        return extended

    def probe(self, pid: int, keys, by_object: bool):
        """``(row numbers, companions)`` of ``keys`` ⋈ one property, by
        one lookup per bound row."""
        kernels = self.kernels
        chunks = [self.slice(pid, key, by_object)[1::2] for key in keys.tolist()]
        rows = kernels.repeat(range(len(chunks)), [len(c) for c in chunks])
        return rows, kernels.concat(chunks)

    def scan(self, pid: int, s: _Position, o: _Position) -> SolutionTable:
        """The rows of one property matching ⟨s, o⟩, no variable bound."""
        view, kernels = self.view, self.kernels
        if isinstance(s, int):
            column = self.slice(pid, s)[1::2]
            return self.table((o,), [column], len(column))
        if isinstance(o, int):
            column = self.slice(pid, o, True)[1::2]
            return self.table((s,), [column], len(column))
        flat = view.columns(pid)
        subjects, objects = flat[0::2], flat[1::2]
        if s == o:
            column = kernels.take(
                subjects, kernels.where_equal(subjects, objects)
            )
            return self.table((s,), [column], len(column))
        return self.table((s, o), [subjects, objects], len(subjects))

    def cross(
        self, left: SolutionTable, right: SolutionTable
    ) -> SolutionTable:
        """Cross product (the patterns share no variable)."""
        if not left.variables:
            return right  # left is the one-row unit table
        kernels = self.kernels
        # A merge join on one constant key pairs every row with every row.
        pairs = kernels.merge_join(
            kernels.index_by_key(kernels.repeat((0,), (len(left),))),
            kernels.index_by_key(kernels.repeat((0,), (len(right),))),
        )
        product = self.gather(left, pairs[0::2])
        product.variables += right.variables
        product.columns += self.gather(right, pairs[1::2]).columns
        return product


class Query:
    """A conjunctive query: a sequence of triple patterns.

    :meth:`evaluate` returns the solutions as id columns
    (:class:`SolutionTable`); ``execute`` decodes one bindings dict per
    solution, ``select`` projects chosen variables as tuples (duplicate
    rows collapsed on ids, SELECT DISTINCT semantics).  All of them
    accept an :class:`InferrayEngine`, a ``Store`` or a ``Snapshot``.
    """

    def __init__(self, patterns: Sequence[TriplePattern]):
        if not patterns:
            raise ValueError("a query needs at least one pattern")
        self.patterns = list(patterns)

    @classmethod
    def parse(cls, *pattern_triples) -> "Query":
        """Build from (s, p, o) tuples using :func:`parse_pattern`."""
        return cls([parse_pattern(*pattern) for pattern in pattern_triples])

    def variables(self) -> List[str]:
        """Names of the query's variables, in order of first occurrence."""
        names: Dict[str, None] = {}
        for pattern in self.patterns:
            for variable in pattern.variables():
                names[variable.name] = None
        return list(names)

    def _compile(self, dictionary) -> Optional[List[Tuple[_Position, ...]]]:
        """Patterns at the id level; ``None`` when a constant was never
        encoded (nothing can match it)."""
        id_of = dictionary.id_of
        compiled = []
        for pattern in self.patterns:
            positions: List[_Position] = []
            for term in (pattern.subject, pattern.predicate, pattern.object):
                if isinstance(term, Var):
                    positions.append(term.name)
                    continue
                term_id = id_of(term)
                if term_id is None:
                    return None
                positions.append(term_id)
            compiled.append(tuple(positions))
        return compiled

    def evaluate(self, engine) -> SolutionTable:
        """Every solution, as id columns over the materialized store."""
        view, dictionary = _id_view(engine)
        evaluation = _Evaluation(view, dictionary)
        variables = self.variables()
        compiled = self._compile(dictionary)
        table = evaluation.table((), [], 1 if compiled else 0)
        if compiled:
            for index in evaluation.order(compiled):
                table = evaluation.extend(table, *compiled[index])
                if not len(table):
                    break
        if not len(table):
            return evaluation.table(
                variables, [view.kernels.concat(()) for _ in variables], 0
            )
        return evaluation.table(
            variables, [table.column(name) for name in variables], len(table)
        )

    def execute(self, engine) -> Iterator[Bindings]:
        """Yield every solution's bindings over the materialized store."""
        table = self.evaluate(engine)
        variables = [Var(name) for name in table.variables]
        for row in table.term_rows():
            yield dict(zip(variables, row))

    def select(
        self, engine, *variables: Union[Var, str]
    ) -> List[Tuple[Term, ...]]:
        """Distinct projected solutions, in first-seen order."""
        names = [
            v.name if isinstance(v, Var) else v.lstrip("?") for v in variables
        ]
        available = self.variables()
        for name in names:
            if name not in available:
                raise ValueError(
                    f"cannot project on ?{name}: the query's variables are "
                    + (", ".join(f"?{v}" for v in available) or "(none)")
                )
        return list(self.evaluate(engine).distinct(names).term_rows())


def match(
    engine,
    subject: Optional[Term] = None,
    predicate: Optional[Term] = None,
    obj: Optional[Term] = None,
) -> Iterator[Triple]:
    """The triples matching one ⟨s, p, o⟩ pattern, ``None`` a wildcard:
    the pattern form of ``query(s, p, o)``, evaluated as a one-pattern
    :class:`Query` with a variable in each ``None`` position.

    Triples come in the order ``triples()`` yields them; a term never
    encoded matches nothing.  A bound position that is not an RDF term
    (a ``str``, a ``Var``, a tuple, …) raises :class:`TypeError` here,
    before anything is evaluated.
    """
    pattern = []
    for name, term in zip(("subject", "predicate", "object"),
                          (subject, predicate, obj)):
        if term is None:
            term = Var(name)
        elif not isinstance(term, (IRI, BlankNode, Literal)):
            raise TypeError(
                f"query(s, p, o): {name} must be an RDF term or None, "
                f"got {term!r}"
            )
        pattern.append(term)
    table = Query([TriplePattern(*pattern)]).evaluate(engine)

    def triples() -> Iterator[Triple]:
        for row in table.term_rows():
            values = iter(row)
            yield Triple(*[
                next(values) if isinstance(term, Var) else term
                for term in pattern
            ])

    return triples()
