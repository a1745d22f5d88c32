"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.rdf.ntriples import parse_file, write_file
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS


@pytest.fixture
def sample_file(tmp_path):
    path = str(tmp_path / "in.nt")
    write_file(
        [
            Triple(IRI("http://ex/h"), RDFS.subClassOf, IRI("http://ex/m")),
            Triple(IRI("http://ex/b"), RDF.type, IRI("http://ex/h")),
        ],
        path,
    )
    return path


class TestInferCommand:
    def test_stdout_closure(self, sample_file, capsys):
        assert main(["infer", sample_file]) == 0
        out = capsys.readouterr().out
        assert out.count(" .") == 3
        assert "<http://ex/b>" in out

    def test_output_file(self, sample_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.nt")
        assert main(["infer", sample_file, "-o", out_path]) == 0
        triples = list(parse_file(out_path))
        assert len(triples) == 3

    def test_inferred_only(self, sample_file, capsys):
        assert main(["infer", sample_file, "--inferred-only"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "<http://ex/m>" in out[0]

    def test_ruleset_flag(self, sample_file, capsys):
        assert main(["infer", sample_file, "--ruleset", "rdfs-full"]) == 0
        out = capsys.readouterr().out
        assert "Resource" in out  # RDFS4 fired

    def test_algorithm_flag_is_gone(self, sample_file, capsys):
        # The scalar-sort axis is deleted; the flag is a usage error on
        # every backend, never a raw exception.
        with pytest.raises(SystemExit) as exit_info:
            main(["infer", sample_file, "--backend", "compressed",
                  "--algorithm", "radix"])
        assert exit_info.value.code == 2
        assert "--algorithm" in capsys.readouterr().err

    def test_bad_ruleset_rejected(self, sample_file):
        with pytest.raises(SystemExit):
            main(["infer", sample_file, "--ruleset", "owl-dl"])


class TestStatsCommand:
    def test_prints_stats(self, sample_file, capsys):
        assert main(["stats", sample_file]) == 0
        out = capsys.readouterr().out
        assert "input triples:     2" in out
        assert "inferred triples:  1" in out
        assert "CAX-SCO" in out


class TestRulesCommand:
    def test_lists_rules(self, capsys):
        assert main(["rules", "--ruleset", "rho-df"]) == 0
        out = capsys.readouterr().out
        assert "rho-df: 8 rules" in out
        assert "CAX-SCO" in out
        assert "class=theta" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestStoreCommands:
    def test_save_load_round_trip(self, sample_file, tmp_path, capsys):
        store_path = str(tmp_path / "c.store")
        assert main(["save", sample_file, "-o", store_path]) == 0
        assert "inferred" in capsys.readouterr().err

        out_path = str(tmp_path / "out.nt")
        assert main(["load", store_path, "-o", out_path]) == 0
        capsys.readouterr()
        assert len(list(parse_file(out_path))) == 3

    def test_load_summary(self, sample_file, tmp_path, capsys):
        store_path = str(tmp_path / "c.store")
        main(["save", sample_file, "-o", store_path])
        capsys.readouterr()
        assert main(["load", store_path]) == 0
        out = capsys.readouterr().out
        assert "total triples:     3" in out
        assert "materialized:      True" in out

    def test_query_store_file(self, sample_file, tmp_path, capsys):
        store_path = str(tmp_path / "c.store")
        main(["save", sample_file, "-o", store_path])
        capsys.readouterr()
        assert main(["query", store_path, "?s rdf:type ?t"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "?s\t?t"
        assert len(out) == 3  # header + b->h, b->m

    def test_query_raw_dataset_and_ask(self, sample_file, capsys):
        assert main(
            ["query", sample_file,
             "<http://ex/b> rdf:type <http://ex/m>"]
        ) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_query_limit(self, sample_file, capsys):
        assert main(
            ["query", sample_file, "?s ?p ?o", "--limit", "1"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2  # header + 1 row

    def test_query_bad_pattern_exits_2(self, sample_file, capsys):
        assert main(["query", sample_file, "?s ?p"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_load_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["load", str(tmp_path / "nope.store")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_query_missing_file_exits_2(self, tmp_path, capsys):
        assert main(
            ["query", str(tmp_path / "nope.nt"), "?s ?p ?o"]
        ) == 2
        assert "no such file" in capsys.readouterr().err

    def test_corrupt_store_exits_2(self, sample_file, tmp_path, capsys):
        store_path = str(tmp_path / "c.store")
        main(["save", sample_file, "-o", store_path])
        capsys.readouterr()
        with open(store_path, "rb") as handle:
            blob = handle.read()
        with open(store_path, "wb") as handle:
            handle.write(blob[:14])  # magic + header-length cut off
        assert main(["query", store_path, "?s ?p ?o"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_load_on_plain_nt_exits_2(self, sample_file, capsys):
        assert main(["load", sample_file]) == 2
        assert "not a serialized store" in capsys.readouterr().err


class TestWorkersFlagIsGone:
    # Rules always fire inline: --workers is a usage error.
    @pytest.mark.parametrize("command", ["infer", "stats", "save", "query"])
    def test_workers_is_an_unknown_option(self, command, sample_file,
                                          tmp_path, capsys):
        extra = {"save": ["-o", str(tmp_path / "c.store")],
                 "query": ["?s rdf:type ?t"]}.get(command, [])
        with pytest.raises(SystemExit) as exit_info:
            main([command, sample_file, *extra, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_stats_reports_no_executor(self, sample_file, capsys):
        assert main(["stats", sample_file]) == 0
        out = capsys.readouterr().out
        assert "workers:" not in out
        assert "speedup" not in out
