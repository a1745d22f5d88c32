"""Backend selection policy, env knobs, and end-to-end threading."""

import os
import subprocess
import sys

import pytest

from repro.core.engine import InferrayEngine
from repro.kernels import (
    BACKEND_NAMES,
    KernelUnavailableError,
    get_backend,
    resolve_backend,
)
from repro.kernels.python_backend import PYTHON_KERNELS

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "src",
)


def run_python(code):
    """``code`` in a fresh interpreter with ``src/`` on the path."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )


class TestResolvePolicy:
    def test_python_always_available(self):
        assert get_backend("python") is PYTHON_KERNELS
        assert resolve_backend("python").name == "python"

    def test_instance_passthrough(self):
        assert resolve_backend(PYTHON_KERNELS) is PYTHON_KERNELS

    def test_unknown_name_rejected(self):
        with pytest.raises(KernelUnavailableError):
            get_backend("cupy")

    def test_auto_prefers_numpy(self, monkeypatch):
        # Default policy: ignore any ambient REPRO_KERNELS override
        # (the compressed CI legs export one).
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert resolve_backend("auto").name == "numpy"
        assert resolve_backend(None).name == "numpy"

    def test_env_default_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert resolve_backend("auto").name == "python"
        # explicit names beat the env default
        assert resolve_backend("numpy").name == "numpy"

    def test_backend_names_exported(self):
        assert set(BACKEND_NAMES) == {"auto", "python", "numpy", "compressed"}


class TestEngineThreading:
    def test_engine_exposes_backend(self):
        engine = InferrayEngine("rho-df", backend="python")
        assert engine.kernels.name == "python"
        assert engine.main.kernels is engine.kernels

    def test_engine_numpy_backend_reaches_tables(self):
        from repro.rdf.terms import IRI, Triple
        from repro.rdf.vocabulary import RDF, RDFS

        engine = InferrayEngine("rdfs-default", backend="numpy")
        engine.load_triples(
            [
                Triple(IRI("ex:h"), RDFS.subClassOf, IRI("ex:m")),
                Triple(IRI("ex:b"), RDF.type, IRI("ex:h")),
            ]
        )
        engine.materialize()
        assert engine.kernels.name == "numpy"
        for pid in engine.main.property_ids():
            # Every table holds its rows in the numpy backend's type.
            assert type(engine.main.table(pid).pairs).__module__ == "numpy"
        assert Triple(IRI("ex:b"), RDF.type, IRI("ex:m")) in set(
            engine.triples()
        )

    def test_cli_accepts_backend_flag(self, tmp_path, capsys):
        from repro.cli import main

        nt = tmp_path / "tiny.nt"
        nt.write_text(
            "<ex:a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> "
            "<ex:b> .\n"
        )
        assert main(["stats", str(nt), "--backend", "python"]) == 0
        out = capsys.readouterr().out
        assert "kernel backend:    python" in out


def test_engine_path_does_not_import_the_table1_sorters():
    # Each kernel backend owns its one pair sort; the Table-1 sorters
    # live in benchmarks/paper, so neither importing the package nor
    # closing a store on the interpreted kernels may load a sorting
    # module back into repro.
    code = (
        "import sys, repro\n"
        "assert 'repro.sorting' not in sys.modules, 'import repro'\n"
        "from repro.rdf import Triple, iri, RDF, RDFS\n"
        "for backend in ('python', 'compressed'):\n"
        "    repro.Store([\n"
        "        Triple(iri('ex:h'), RDFS.subClassOf, iri('ex:m')),\n"
        "        Triple(iri('ex:b'), RDF.type, iri('ex:h')),\n"
        "    ], backend=backend).materialize()\n"
        "assert 'repro.sorting' not in sys.modules, 'materialize'\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr


def test_without_numpy_the_engine_fails_loudly():
    # numpy is a dependency: with it missing, importing the package and
    # the CLI's help still work, but an engine raises rather than
    # silently running on the pure-Python kernels.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import runpy, repro\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert exit.code in (0, None), exit.code\n"
        "from repro.core.engine import InferrayEngine\n"
        "try:\n"
        "    InferrayEngine('rdfs-default')\n"
        "except ModuleNotFoundError as error:\n"
        "    assert error.name == 'numpy', error.name\n"
        "else:\n"
        "    raise AssertionError('engine built without numpy')\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert "usage: repro" in result.stdout
