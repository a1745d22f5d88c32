"""Chaos tests: crash/fault the persistence path, prove atomicity.

The invariant under test: ``Store.save`` either fully replaces the
target file or leaves the previous bytes untouched — a fault (or a
kill -9) mid-save never yields a half-written store, and never litters
the directory with temp files that the next boot would trip over.
Faults are injected by patching :mod:`repro.durable`, through which
every save reaches disk.
"""

import os
import subprocess
import sys

import pytest

from repro import durable
from repro.core.store_api import Store, StoreCorruptionError, is_store_file
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS

LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
KILLED = 70  # launch.KILLED


class InjectedFault(RuntimeError):
    pass


def fail_mid_write(monkeypatch):
    """The next atomic write raises after its first chunk."""
    write_atomically = durable.write_atomically

    def torn(path, chunks):
        def first_chunk_then_fault():
            yield next(iter(chunks))
            raise InjectedFault("mid-write")

        monkeypatch.setattr(durable, "write_atomically", write_atomically)
        return write_atomically(path, first_chunk_then_fault())

    monkeypatch.setattr(durable, "write_atomically", torn)


def fail_at_fsync(monkeypatch):
    def refuse(handle):
        raise InjectedFault("fsync")

    monkeypatch.setattr(durable, "fsync_file", refuse)


FAULTS = {"persist.write": fail_mid_write, "persist.fsync": fail_at_fsync}


def ex(name):
    return IRI(f"ex:{name}")


DATA = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("Bart"), RDF.type, ex("human")),
]

MORE = [Triple(ex("Lisa"), RDF.type, ex("human"))]


def make_store(extra=()):
    store = Store(DATA + list(extra))
    store.materialize()
    return store


def no_temp_litter(directory):
    return [n for n in os.listdir(directory) if ".tmp" in n] == []


class TestFaultedSaveAtomicity:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_mid_save_keeps_previous_file(
        self, tmp_path, monkeypatch, fault
    ):
        target = str(tmp_path / "store.bin")
        make_store().save(target)
        golden = open(target, "rb").read()
        FAULTS[fault](monkeypatch)
        with pytest.raises(InjectedFault):
            make_store(MORE).save(target)
        assert open(target, "rb").read() == golden
        assert no_temp_litter(tmp_path)
        with Store.load(target) as reloaded:
            assert set(reloaded.triples()) == set(make_store().triples())

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_on_fresh_save_leaves_nothing(
        self, tmp_path, monkeypatch, fault
    ):
        target = str(tmp_path / "store.bin")
        FAULTS[fault](monkeypatch)
        with pytest.raises(InjectedFault):
            make_store().save(target)
        assert not os.path.exists(target)
        assert no_temp_litter(tmp_path)

    def test_save_succeeds_after_fault_exhausted(self, tmp_path, monkeypatch):
        target = str(tmp_path / "store.bin")
        fail_mid_write(monkeypatch)
        store = make_store()
        with pytest.raises(InjectedFault):
            store.save(target)
        store.save(target)  # the single armed fault was consumed
        with Store.load(target) as reloaded:
            assert reloaded.n_triples == make_store().n_triples


class TestKilledSubprocessMidSave:
    def test_kill_mid_save_preserves_previous_file(self, tmp_path):
        """kill -9 (via os._exit in the write) mid-save: old file intact."""
        target = str(tmp_path / "store.bin")
        make_store().save(target)
        golden = open(target, "rb").read()
        data = tmp_path / "data.nt"
        data.write_text(
            "".join(t.n3() + "\n" for t in DATA + MORE), encoding="utf-8"
        )
        result = subprocess.run(
            [sys.executable, LAUNCH, "kill-mid-save", "save", str(data),
             "-o", target],
            env={**os.environ, "PYTHONPATH": _src_path()},
        )
        assert result.returncode == KILLED
        assert open(target, "rb").read() == golden
        assert is_store_file(target)
        with Store.load(target) as reloaded:
            assert set(reloaded.triples()) == set(make_store().triples())
        # The orphaned temp file from the killed process (os._exit runs
        # no cleanup) must not confuse loading, and must be the only
        # residue.
        litter = [n for n in os.listdir(tmp_path) if ".tmp" in n]
        assert len(litter) <= 1


class TestCorruptionDetection:
    def test_every_flipped_byte_is_detected(self, tmp_path):
        """Flip one byte at a stride across the payload: every flip
        either raises a structured corruption error or (for the header
        region) a structured format error — never a silent wrong load
        and never a raw struct/KeyError leak."""
        target = str(tmp_path / "store.bin")
        make_store().save(target)
        golden = open(target, "rb").read()
        baseline = sorted(t.n3() for t in Store.load(target).triples())
        flips = range(0, len(golden), max(1, len(golden) // 64))
        undetected = []
        for position in flips:
            corrupted = bytearray(golden)
            corrupted[position] ^= 0xFF
            with open(target, "wb") as handle:
                handle.write(bytes(corrupted))
            try:
                with Store.load(target) as reloaded:
                    loaded = sorted(t.n3() for t in reloaded.triples())
                if loaded != baseline:
                    undetected.append(position)
            except ValueError:
                # StoreFormatError and every corruption subclass are
                # ValueErrors; anything else (struct.error, KeyError,
                # EOFError...) fails the test by propagating.
                continue
        assert undetected == []

    def test_truncation_at_any_point_is_detected(self, tmp_path):
        target = str(tmp_path / "store.bin")
        make_store().save(target)
        golden = open(target, "rb").read()
        for cut in range(1, len(golden), max(1, len(golden) // 32)):
            with open(target, "wb") as handle:
                handle.write(golden[:cut])
            with pytest.raises(ValueError):
                Store.load(target)

    def test_corruption_error_names_section_and_offset(self, tmp_path):
        target = str(tmp_path / "store.bin")
        make_store().save(target)
        golden = bytearray(open(target, "rb").read())
        golden[-2] ^= 0xFF  # deep in the last section's payload
        with open(target, "wb") as handle:
            handle.write(bytes(golden))
        with pytest.raises(StoreCorruptionError) as excinfo:
            Store.load(target)
        assert excinfo.value.section is not None
        assert excinfo.value.offset is not None
        assert excinfo.value.section in str(excinfo.value)


def _src_path():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
