"""Unit tests for :mod:`repro.durable`, the store file's and the WAL's
only route to disk.

Each function is checked for what it leaves on disk, and for the syncs
it makes, by replacing the module-global it calls (the same seam the
chaos and WAL suites use to inject faults).
"""

import os
import stat
import tempfile

import pytest

from repro import durable


class InjectedFault(RuntimeError):
    pass


def temp_files(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


def record_calls(monkeypatch, name):
    """Replace ``durable.<name>`` with a wrapper that logs its argument."""
    calls = []
    real = getattr(durable, name)

    def recording(arg):
        calls.append(arg)
        return real(arg)

    monkeypatch.setattr(durable, name, recording)
    return calls


class TestWriteAtomically:
    def test_writes_the_concatenated_chunks(self, tmp_path):
        target = tmp_path / "out.bin"
        written = durable.write_atomically(str(target), [b"ab", b"", b"cde"])
        assert written == 5
        assert target.read_bytes() == b"abcde"
        assert temp_files(tmp_path) == []

    def test_replaces_an_existing_file_and_keeps_its_mode(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old contents")
        os.chmod(target, 0o640)
        durable.write_atomically(str(target), [b"new"])
        assert target.read_bytes() == b"new"
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o640

    def test_a_new_file_is_owner_only(self, tmp_path):
        target = tmp_path / "fresh.bin"
        durable.write_atomically(str(target), [b"x"])
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o600

    def test_relative_path_lands_in_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        durable.write_atomically("rel.bin", [b"here"])
        assert (tmp_path / "rel.bin").read_bytes() == b"here"
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "fresh"])
    def test_chunk_failure_leaves_target_and_no_temp_file(
        self, tmp_path, exists
    ):
        target = tmp_path / "out.bin"
        if exists:
            target.write_bytes(b"previous")

        def chunks():
            yield b"partial"
            raise InjectedFault("mid-write")

        with pytest.raises(InjectedFault):
            durable.write_atomically(str(target), chunks())
        if exists:
            assert target.read_bytes() == b"previous"
        else:
            assert not target.exists()
        assert temp_files(tmp_path) == []

    def test_interrupt_also_removes_the_temp_file(self, tmp_path):
        target = tmp_path / "out.bin"

        def chunks():
            yield b"partial"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            durable.write_atomically(str(target), chunks())
        assert not target.exists()
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize(
        "seam", [(durable, "fsync_file"), (durable.os, "replace")],
        ids=["fsync", "replace"],
    )
    def test_sync_or_rename_failure_leaves_target(
        self, tmp_path, monkeypatch, seam
    ):
        target = tmp_path / "out.bin"
        target.write_bytes(b"previous")

        def refuse(*args):
            raise InjectedFault(seam[1])

        with monkeypatch.context() as patch:
            patch.setattr(*seam, refuse)
            with pytest.raises(InjectedFault):
                durable.write_atomically(str(target), [b"new"])
        assert target.read_bytes() == b"previous"
        assert temp_files(tmp_path) == []

    def test_fsyncs_the_file_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "out.bin"
        events = []
        real_fsync_file = durable.fsync_file

        def fsync_file(handle):
            events.append(("file", os.path.exists(target)))
            real_fsync_file(handle)

        monkeypatch.setattr(durable, "fsync_file", fsync_file)
        monkeypatch.setattr(
            durable, "fsync_directory",
            lambda directory: events.append(("dir", directory)),
        )
        durable.write_atomically(str(target), [b"x"])
        assert events == [("file", False), ("dir", str(tmp_path))]


class TestAppend:
    @pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "flush"])
    def test_data_reaches_the_file(self, tmp_path, monkeypatch, fsync):
        path = tmp_path / "log.bin"
        synced = record_calls(monkeypatch, "fsync_file")
        with open(path, "ab") as handle:
            durable.append(handle, b"one", fsync=fsync)
            durable.append(handle, b"two", fsync=fsync)
            # Visible through a second handle before this one closes.
            assert path.read_bytes() == b"onetwo"
        assert len(synced) == (2 if fsync else 0)

    def test_fsync_failure_propagates(self, tmp_path, monkeypatch):
        def refuse(handle):
            raise InjectedFault("fsync")

        monkeypatch.setattr(durable, "fsync_file", refuse)
        with open(tmp_path / "log.bin", "ab") as handle:
            with pytest.raises(InjectedFault):
                durable.append(handle, b"data", fsync=True)


class TestRemoveOrphanedTemps:
    def test_removes_only_write_atomically_temp_files(self, tmp_path):
        target = str(tmp_path / "x.store")
        orphans = []
        for _ in range(3):
            # What a write killed between mkstemp and os.replace leaves.
            fd, orphan = tempfile.mkstemp(
                dir=str(tmp_path), prefix="x.store.", suffix=".tmp"
            )
            os.close(fd)
            orphans.append(os.path.basename(orphan))
        keep = ["x.store", "x.store.backup.tmp", "x.store.abcdefghi.tmp",
                "y.store.abcdefgh.tmp", "x.store.abcdefgh.tmp.old"]
        for name in keep:
            (tmp_path / name).write_bytes(b"user data")
        removed = durable.remove_orphaned_temps(target)
        assert sorted(removed) == sorted(orphans)
        assert sorted(os.listdir(tmp_path)) == sorted(keep)

    def test_missing_directory_removes_nothing(self, tmp_path):
        assert durable.remove_orphaned_temps(
            str(tmp_path / "absent" / "x.store")
        ) == []


class TestTruncateFile:
    def test_cuts_to_size_and_syncs(self, tmp_path, monkeypatch):
        path = tmp_path / "log.bin"
        path.write_bytes(b"0123456789")
        synced = record_calls(monkeypatch, "fsync_file")
        durable.truncate_file(str(path), 4)
        assert path.read_bytes() == b"0123"
        assert len(synced) == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            durable.truncate_file(str(tmp_path / "absent.bin"), 0)


class TestFsyncDirectory:
    def test_missing_directory_is_ignored(self, tmp_path):
        durable.fsync_directory(str(tmp_path / "absent"))

    def test_refused_fsync_is_ignored_and_fd_closed(self, tmp_path, monkeypatch):
        opened, closed = [], []
        real_open, real_close = os.open, os.close

        def tracking_open(*args, **kwargs):
            fd = real_open(*args, **kwargs)
            opened.append(fd)
            return fd

        def tracking_close(fd):
            closed.append(fd)
            real_close(fd)

        def refuse(fd):
            raise OSError("directory fsync not supported")

        monkeypatch.setattr(durable.os, "open", tracking_open)
        monkeypatch.setattr(durable.os, "close", tracking_close)
        monkeypatch.setattr(durable.os, "fsync", refuse)
        durable.fsync_directory(str(tmp_path))
        assert len(opened) == 1 and closed == opened
