"""Property tests: incremental materialization ≡ batch materialization,
and lazy incremental flushes through ``Store`` ≡ a from-scratch
rebuild."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import InferrayEngine
from repro.core.store_api import Store, StoreConfig
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS


def ex(name):
    return IRI(f"ex:{name}")


_CLASSES = [ex(f"C{i}") for i in range(4)]
_PROPS = [ex(f"p{i}") for i in range(3)]
_INDIVIDUALS = [ex(f"i{i}") for i in range(4)]


@st.composite
def schema_and_data(draw):
    triples = []
    for _ in range(draw(st.integers(2, 14))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            triples.append(
                Triple(
                    draw(st.sampled_from(_CLASSES)),
                    RDFS.subClassOf,
                    draw(st.sampled_from(_CLASSES)),
                )
            )
        elif kind == 1:
            triples.append(
                Triple(
                    draw(st.sampled_from(_PROPS)),
                    draw(st.sampled_from([RDFS.domain, RDFS.range])),
                    draw(st.sampled_from(_CLASSES)),
                )
            )
        elif kind == 2:
            triples.append(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    RDF.type,
                    draw(st.sampled_from(_CLASSES)),
                )
            )
        elif kind == 3:
            triples.append(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    draw(st.sampled_from(_PROPS)),
                    draw(st.sampled_from(_INDIVIDUALS)),
                )
            )
        else:
            triples.append(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    OWL.sameAs,
                    draw(st.sampled_from(_INDIVIDUALS)),
                )
            )
    return triples


@settings(max_examples=30, deadline=None)
@given(schema_and_data(), schema_and_data(), st.sampled_from(
    ["rdfs-default", "rdfs-plus"]
))
def test_incremental_equals_batch(first, second, ruleset):
    incremental = InferrayEngine(ruleset)
    incremental.load_triples(first)
    incremental.materialize()
    incremental.materialize_incremental(second)

    batch = InferrayEngine(ruleset)
    batch.load_triples(first + second)
    batch.materialize()

    assert set(incremental.triples()) == set(batch.triples())


@settings(max_examples=20, deadline=None)
@given(schema_and_data())
def test_retract_all_of_second_batch_restores_first(batch2):
    first = [
        Triple(ex("C0"), RDFS.subClassOf, ex("C1")),
        Triple(ex("i0"), RDF.type, ex("C0")),
    ]
    engine = InferrayEngine("rdfs-default")
    engine.load_triples(first)
    engine.materialize()
    reference = set(engine.triples())

    engine.materialize_incremental(batch2)
    engine.retract_and_rematerialize(batch2)
    # Retracting the delta restores the original closure unless batch2
    # re-asserted one of the original triples (then it is removed too).
    if not (set(batch2) & set(first)):
        assert set(engine.triples()) == reference


# ----------------------------------------------------------------------
# Store fuzz: random add/remove interleavings
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    schema_and_data(),
    schema_and_data(),
    schema_and_data(),
    st.data(),
    st.sampled_from(["rdfs-default", "rdfs-plus"]),
)
def test_interleaved_mutations_match_a_rebuild(
    first, second, third, data, ruleset
):
    """Lazy incremental flushes ≡ fresh rebuild.

    Interleaves adds, reads (which flush semi-naively) and removes,
    then compares the closure against a from-scratch store holding the
    same surviving asserted set.
    """
    removed = data.draw(
        st.lists(st.sampled_from(first), unique=True, max_size=len(first))
        if first
        else st.just([])
    )
    store = Store(config=StoreConfig(ruleset=ruleset))
    store.add(first)
    assert store.n_triples >= 0  # read: flushes the first batch
    store.add(second)
    store.remove(removed)  # wins over pending copies of the same triple
    assert store.n_triples >= 0  # read: rebuild (removes) + delta
    store.add(third)  # may re-assert removed triples

    removed_set = set(removed)
    surviving = (
        [t for t in first if t not in removed_set]
        + [t for t in second if t not in removed_set]
        + list(third)
    )
    rebuild = Store(surviving, config=StoreConfig(ruleset=ruleset))
    assert set(store.triples()) == set(rebuild.triples())
