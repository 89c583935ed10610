"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main, read_graph_auto, write_graph_auto
from repro.graph import grid_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.graph"
    write_graph_auto(grid_graph(6, 6), path)
    return path


class TestAutoIo:
    @pytest.mark.parametrize("name", ["g.graph", "g.metis", "g.json", "g.edges"])
    def test_roundtrip_by_extension(self, tmp_path, name):
        g = grid_graph(4, 4)
        path = tmp_path / name
        write_graph_auto(g, path)
        back = read_graph_auto(path)
        assert back.num_vertices == 16
        assert back.num_edges == g.num_edges

    def test_missing_file_is_graph_error(self, tmp_path):
        from repro.common.exceptions import GraphError

        with pytest.raises(GraphError, match="not found"):
            read_graph_auto(tmp_path / "nope.graph")

    def test_parse_error_names_supported_extensions(self, tmp_path):
        from repro.common.exceptions import GraphError

        bad = tmp_path / "g.xyz"
        bad.write_text("this is not an edge list\n")
        with pytest.raises(GraphError, match=r"\.graph, \.metis, \.json"):
            read_graph_auto(bad)


class TestTopLevel:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestPartitionCommand:
    """Partitioning a graph file: `repro solve` runs one method once,
    `repro portfolio` runs seeded restarts and keeps the best."""

    def test_writes_assignment(self, graph_file, tmp_path, capsys):
        out = tmp_path / "parts.txt"
        code = main([
            "solve", str(graph_file), "-k", "4",
            "--method", "multilevel", "--seed", "1", "-o", str(out),
        ])
        assert code == 0
        assignment = [int(x) for x in out.read_text().split()]
        assert len(assignment) == 36
        assert set(assignment) == {0, 1, 2, 3}
        assert "mcut=" in capsys.readouterr().err

    def test_stdout_mode(self, graph_file, capsys):
        code = main([
            "solve", str(graph_file), "-k", "2", "--method", "spectral",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 36

    def test_metaheuristic_with_budget(self, graph_file, tmp_path):
        out = tmp_path / "p.txt"
        code = main([
            "solve", str(graph_file), "-k", "3",
            "--method", "fusion-fission", "--budget", "2s", "-o", str(out),
        ])
        assert code == 0
        assert len(out.read_text().split()) == 36

    def test_method_alias(self, graph_file, tmp_path):
        out = tmp_path / "p.txt"
        code = main([
            "solve", str(graph_file), "-k", "4", "--method", "ml",
            "-o", str(out),
        ])
        assert code == 0
        assert len(out.read_text().split()) == 36

    def test_multi_seed_parallel_restarts(self, graph_file, tmp_path, capsys):
        out = tmp_path / "p.txt"
        code = main([
            "portfolio", str(graph_file), "-k", "3",
            "--methods", "annealing", "--budget", "1",
            "--seeds", "2", "--jobs", "2", "-o", str(out),
        ])
        assert code == 0
        assert len(out.read_text().split()) == 36
        captured = capsys.readouterr()
        assert "best:" in captured.out
        assert "mcut=" in captured.err


class TestEvaluateCommand:
    def test_reports_metrics(self, graph_file, tmp_path, capsys):
        parts = tmp_path / "p.txt"
        parts.write_text("\n".join(str(i % 4) for i in range(36)))
        code = main(["evaluate", str(graph_file), str(parts)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mcut" in out
        assert "num_parts" in out

    def test_json_output(self, graph_file, tmp_path, capsys):
        parts = tmp_path / "p.txt"
        parts.write_text("\n".join(str(i % 2) for i in range(36)))
        code = main(["evaluate", str(graph_file), str(parts), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_parts"] == 2

    def test_bad_assignment_is_clean_error(self, graph_file, tmp_path, capsys):
        parts = tmp_path / "p.txt"
        parts.write_text("\n".join(["0"] * 35 + ["7"]))  # gap in ids
        code = main(["evaluate", str(graph_file), str(parts)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestGenerateAndConvert:
    @pytest.mark.parametrize("family,extra", [
        ("grid", ["--rows", "5", "--cols", "5"]),
        ("caveman", ["--caves", "3", "--cave-size", "4"]),
        ("geometric", ["--n", "40", "--radius", "0.2"]),
    ])
    def test_generate(self, tmp_path, family, extra):
        out = tmp_path / "g.graph"
        code = main(["generate", family, "-o", str(out), *extra])
        assert code == 0
        g = read_graph_auto(out)
        assert g.num_vertices > 0

    def test_generate_atc(self, tmp_path):
        out = tmp_path / "atc.json"
        code = main(["generate", "atc", "-o", str(out)])
        assert code == 0
        g = read_graph_auto(out)
        assert g.num_vertices == 762
        assert g.num_edges == 3165

    def test_convert(self, graph_file, tmp_path):
        out = tmp_path / "g.json"
        code = main(["convert", str(graph_file), str(out)])
        assert code == 0
        assert read_graph_auto(out).num_vertices == 36
