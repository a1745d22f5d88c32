"""kill -9 the serving process between ack and flush; prove zero loss.

The full out-of-process durability story: ``repro serve --wal`` boots
in a subprocess with its flush pipeline sabotaged (every post-boot
flush fails, through ``tests/faults/launch.py broken-flush``), so an
acknowledged write exists *only* in the WAL.  SIGKILL — no atexit, no
drain, no checkpoint.  A clean restart over the same WAL must replay
the write and serve it.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time

EX = "http://example.org/"
BASE_NT = (
    f"<{EX}human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> "
    f"<{EX}mammal> .\n"
    f"<{EX}Bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    f"<{EX}human> .\n"
)
LISA_NT = (
    f"<{EX}Lisa> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    f"<{EX}human> .\n"
)
MAMMAL_QUERY = "/query?q=%3Fwho%20a%20%3Chttp%3A%2F%2Fexample.org%2Fmammal%3E"

BOOT_TIMEOUT = 60.0

LAUNCH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "faults",
    "launch.py",
)


def _src_path():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _serve(input_path, wal_path, *, fault=None, extra_args=()):
    """Launch ``repro serve`` on an ephemeral port; return (proc, port).

    ``fault`` names a ``tests/faults/launch.py`` fault to install first.
    """
    env = {
        **os.environ,
        "PYTHONPATH": _src_path(),
        "PYTHONUNBUFFERED": "1",
    }
    launcher = ["-m", "repro"] if fault is None else [LAUNCH, fault]
    proc = subprocess.Popen(
        [
            sys.executable,
            *launcher,
            "serve",
            input_path,
            "--port",
            "0",
            "--wal",
            wal_path,
            "--workers",
            "1",
            *extra_args,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    port = None
    deadline = time.monotonic() + BOOT_TIMEOUT
    lines = []
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        lines.append(line)
        if "serving on http://" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        raise AssertionError(f"server did not announce a port:\n{''.join(lines)}")
    return proc, port


def _request(port, method, path, body=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    status, raw = response.status, response.read()
    conn.close()
    return status, raw


def _wait_exit(proc, timeout=30):
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise


class TestKillNineRecovery:
    def test_acked_write_survives_kill_nine(self, tmp_path):
        data = tmp_path / "base.nt"
        data.write_text(BASE_NT)
        wal_path = str(tmp_path / "serve.wal")

        # Boot with the flush pipeline broken from the second flush on:
        # the boot flush succeeds, so the server comes up, but the
        # write below is acknowledged purely on the strength of the WAL.
        proc, port = _serve(str(data), wal_path, fault="broken-flush")
        try:
            status, raw = _request(port, "POST", "/add", LISA_NT)
            assert status == 202, raw
            # The ack happened after the fsynced append — SIGKILL now
            # models a crash at the worst possible moment.
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.stderr.close()
            if proc.poll() is None:
                _wait_exit(proc)
        assert os.path.exists(wal_path)

        # Clean restart over the same WAL: the boot log must admit to
        # the replay, and the inferred closure must contain the write.
        proc, port = _serve(str(data), wal_path)
        try:
            status, raw = _request(port, "GET", MAMMAL_QUERY)
            assert status == 200, raw
            names = {
                s["who"] for s in json.loads(raw)["solutions"]
            }
            assert f"<{EX}Lisa>" in names  # replayed AND inferred
            assert f"<{EX}Bart>" in names
            status, raw = _request(port, "GET", "/stats")
            stats = json.loads(raw)
            assert stats["wal"]["replayed_at_boot"] >= 1
        finally:
            proc.send_signal(signal.SIGTERM)
            code = _wait_exit(proc)
            proc.stderr.close()
        assert code == 0

        # The graceful shutdown checkpointed: a third boot replays
        # nothing but still serves the write (from the checkpoint).
        proc, port = _serve(str(data), wal_path)
        try:
            status, raw = _request(port, "GET", "/stats")
            stats = json.loads(raw)
            assert stats["wal"]["replayed_at_boot"] == 0
            status, raw = _request(port, "GET", MAMMAL_QUERY)
            names = {
                s["who"] for s in json.loads(raw)["solutions"]
            }
            assert f"<{EX}Lisa>" in names
        finally:
            proc.send_signal(signal.SIGTERM)
            _wait_exit(proc)
            proc.stderr.close()
