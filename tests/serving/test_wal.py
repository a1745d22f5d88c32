"""Write-ahead log tests: unit-level framing and server-level durability.

The durability contract: once the server acknowledges a write, that
write survives any crash — because the ack only happens after the WAL
append (and fsync, under the default policy) landed.
"""

import http.client
import os
import struct
import threading
import zlib

import pytest

from repro import Store
from repro.rdf import RDF, RDFS, Triple, iri
from repro.serving import ServerThread, WALCorruptionError, WriteAheadLog
from repro.serving.wal import WAL_MAGIC
from repro.faults import inject, reset

EX = "http://example.org/"


@pytest.fixture(autouse=True)
def _clean_registry():
    reset()
    yield
    reset()


def ex(name):
    return iri(EX + name)


def base_triples():
    return [
        Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
        Triple(ex("Bart"), RDF.type, ex("human")),
    ]


def t(name):
    return Triple(ex(name), RDF.type, ex("human"))


class TestAppendReplay:
    def test_append_assigns_increasing_seqs(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"))
        assert wal.append("add", [t("a")]) == 1
        assert wal.append("remove", [t("a")]) == 2
        assert wal.last_seq == 2
        assert wal.depth == 2
        wal.close()

    def test_replay_applies_pending_records(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"))
        wal.append("add", [t("a"), t("b")])
        wal.append("remove", [t("b")])
        wal.close()
        reopened = WriteAheadLog(str(tmp_path / "w.wal"))
        store = Store(base_triples())
        assert reopened.replay_into(store) == 2
        store.materialize()
        assert t("a") in store
        assert t("b") not in store
        reopened.close()

    def test_reopen_continues_sequence(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"))
        wal.append("add", [t("a")])
        wal.close()
        reopened = WriteAheadLog(str(tmp_path / "w.wal"))
        assert reopened.append("add", [t("b")]) == 2
        reopened.close()

    def test_empty_log_replays_nothing(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"))
        assert wal.replay_into(Store()) == 0
        wal.close()

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fsync policy"):
            WriteAheadLog(str(tmp_path / "w.wal"), fsync_policy="maybe")

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_all_policies_append_and_replay(self, tmp_path, policy):
        wal = WriteAheadLog(str(tmp_path / "w.wal"), fsync_policy=policy)
        wal.append("add", [t("a")])
        wal.sync()
        wal.close()
        reopened = WriteAheadLog(str(tmp_path / "w.wal"))
        assert reopened.depth == 1
        reopened.close()

    def test_appends_survive_concurrent_checkpoints(self, tmp_path):
        # The server appends on one thread and checkpoints on another:
        # no append may meet the handle mid-compaction or be dropped.
        wal = WriteAheadLog(str(tmp_path / "w.wal"), fsync_policy="never")
        done = threading.Event()
        errors = []

        def checkpoint_until_done():
            while not done.is_set():
                try:
                    wal.checkpoint(0)
                except Exception as error:
                    errors.append(error)

        checkpointer = threading.Thread(target=checkpoint_until_done)
        checkpointer.start()
        try:
            for i in range(300):
                wal.append("add", [t(f"a{i}")])
        except Exception as error:
            errors.append(error)
        finally:
            done.set()
            checkpointer.join()
        wal.close()
        assert errors == []
        reopened = WriteAheadLog(str(tmp_path / "w.wal"))
        assert reopened.depth == 300
        reopened.close()


class TestRecovery:
    def test_torn_tail_is_dropped_with_warning(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        wal.append("add", [t("a")])
        wal.append("add", [t("b")])
        wal.close()
        intact_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(struct.pack("<QBI", 3, 0, 999))  # torn header+len
            handle.write(b"partial payload that never finished")
        with pytest.warns(RuntimeWarning, match="torn"):
            reopened = WriteAheadLog(path)
        assert reopened.depth == 2
        assert reopened.torn_records_dropped == 1
        assert os.path.getsize(path) == intact_size
        # Appends continue cleanly after the truncation.
        assert reopened.append("add", [t("c")]) == 3
        reopened.close()

    def test_corrupt_crc_truncates_from_there(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        wal.append("add", [t("a")])
        wal.append("add", [t("b")])
        wal.close()
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # flip the final CRC byte
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.warns(RuntimeWarning, match="torn"):
            reopened = WriteAheadLog(path)
        assert reopened.depth == 1  # only the first record survives
        reopened.close()

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "w.wal")
        with open(path, "wb") as handle:
            handle.write(b"definitely not a WAL file\n")
        with pytest.raises(WALCorruptionError, match="bad magic"):
            WriteAheadLog(path)

    def test_checkpoint_compacts_to_tail(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        for name in ("a", "b", "c"):
            wal.append("add", [t(name)])
        wal.checkpoint(2)
        assert wal.depth == 1
        assert wal.checkpoints_total == 1
        assert wal.last_checkpoint_at is not None
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.depth == 1
        assert [entry[0] for entry in reopened._pending] == [3]
        # Sequence numbering survives compaction.
        assert reopened.append("add", [t("d")]) == 4
        reopened.close()

    def test_checkpoint_of_everything_leaves_magic_only(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        wal.append("add", [t("a")])
        wal.checkpoint(wal.last_seq)
        wal.close()
        assert open(path, "rb").read() == WAL_MAGIC


class TestServerDurability:
    def _post(self, address, path, body):
        host, port = address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        status, raw = response.status, response.read()
        conn.close()
        return status, raw

    def test_acked_write_survives_crash_via_replay(self, tmp_path):
        """Ack with a dead flush pipeline, "crash", reboot, replay.

        The flush is broken from the second call on (the boot flush
        succeeds), so the acknowledged write never reaches the store —
        only the WAL holds it.  Abandoning the server without a
        graceful drain plays the part of the crash; a fresh WAL over
        the same file must replay the write into a fresh store.
        """
        wal_path = str(tmp_path / "serve.wal")
        store = Store(base_triples())
        nt = f"<{EX}Lisa> <{RDF.type.value}> <{EX}human> .\n"
        with inject("serving.flush:raise:after=1:times=-1"):
            handle = ServerThread(
                store,
                port=0,
                wal=WriteAheadLog(wal_path),
                flush_retry_seconds=0.01,
                max_drain_failures=2,
            ).start()
            try:
                status, raw = self._post(handle.address, "/add", nt)
                assert status == 202, raw  # acked: durably in the WAL
            finally:
                handle.stop()  # flush still broken: no final checkpoint
        recovered = WriteAheadLog(wal_path)
        assert recovered.depth >= 1
        reborn = Store(base_triples())
        assert recovered.replay_into(reborn) >= 1
        reborn.materialize()
        assert Triple(ex("Lisa"), RDF.type, ex("human")) in reborn
        assert Triple(ex("Lisa"), RDF.type, ex("mammal")) in reborn
        recovered.close()

    def test_wal_append_failure_rejects_with_503(self, tmp_path):
        wal_path = str(tmp_path / "serve.wal")
        store = Store(base_triples())
        nt = f"<{EX}Lisa> <{RDF.type.value}> <{EX}human> .\n"
        with inject("serving.wal:raise:times=-1"):
            with ServerThread(
                store, port=0, wal=WriteAheadLog(wal_path)
            ) as handle:
                status, raw = self._post(handle.address, "/add", nt)
        assert status == 503
        assert b"NOT durable" in raw
        # Nothing hit the log, so a recovery replays nothing.
        recovered = WriteAheadLog(wal_path)
        assert recovered.depth == 0
        recovered.close()

    def test_graceful_shutdown_checkpoints_to_empty_log(self, tmp_path):
        wal_path = str(tmp_path / "serve.wal")
        store = Store(base_triples())
        nt = f"<{EX}Lisa> <{RDF.type.value}> <{EX}human> .\n"
        with ServerThread(
            store, port=0, wal=WriteAheadLog(wal_path)
        ) as handle:
            status, _ = self._post(handle.address, "/add?wait=1", nt)
            assert status == 200
        # Drained shutdown: the checkpoint holds the closure and the
        # log holds nothing, so the next boot replays zero records.
        recovered = WriteAheadLog(wal_path)
        assert recovered.depth == 0
        recovered.close()
        checkpoint = wal_path + ".checkpoint"
        assert os.path.exists(checkpoint)
        with Store.load(checkpoint) as reloaded:
            assert Triple(ex("Lisa"), RDF.type, ex("mammal")) in reloaded

    def test_boot_replay_is_counted(self, tmp_path):
        wal_path = str(tmp_path / "serve.wal")
        seeded = WriteAheadLog(wal_path)
        seeded.append(
            "add", [Triple(ex("Lisa"), RDF.type, ex("human"))]
        )
        seeded.close()
        store = Store(base_triples())
        with ServerThread(
            store, port=0, wal=WriteAheadLog(wal_path)
        ) as handle:
            host, port = handle.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("GET", "/stats")
            import json

            payload = json.loads(conn.getresponse().read())
            conn.close()
        assert payload["wal"]["enabled"] is True
        assert payload["wal"]["replayed_at_boot"] == 1
        # The replayed write is queryable from the published epoch.
        assert Triple(ex("Lisa"), RDF.type, ex("mammal")) in store
