import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyminor
from polyminor import cli
from polyminor.cli import main
from polyminor.survey import DEFAULT_ROW_BUDGET

from oracles import localization_family

FRAME_DOC = """\
name frame
bounding 0 0 3 3
cell 0 0
cell 1 0
cell 2 0
cell 0 1
cell 2 1
cell 0 2
cell 1 2
cell 2 2
"""

S_TETROMINO_DOC = "cell 0 0\ncell 1 0\ncell 1 1\ncell 2 1\n"

UNIT_DOC = "cell 0 0\n"

HOLE_DOC = "bounding 0 0 3 3\ncell 1 1\n"

# human (non --json) output on the frame, pinned byte for byte
FRAME_GENS_TEXT = """\
20 generators
  x(1,1)*x(0,0) - x(1,0)*x(0,1)
  x(1,2)*x(0,0) - x(1,0)*x(0,2)
  x(1,3)*x(0,0) - x(1,0)*x(0,3)
  x(2,1)*x(0,0) - x(2,0)*x(0,1)
  x(3,1)*x(0,0) - x(3,0)*x(0,1)
  x(1,2)*x(0,1) - x(1,1)*x(0,2)
  x(1,3)*x(0,1) - x(1,1)*x(0,3)
  x(1,3)*x(0,2) - x(1,2)*x(0,3)
  x(2,3)*x(0,2) - x(2,2)*x(0,3)
  x(3,3)*x(0,2) - x(3,2)*x(0,3)
  x(2,1)*x(1,0) - x(2,0)*x(1,1)
  x(3,1)*x(1,0) - x(3,0)*x(1,1)
  x(2,3)*x(1,2) - x(2,2)*x(1,3)
  x(3,3)*x(1,2) - x(3,2)*x(1,3)
  x(3,1)*x(2,0) - x(3,0)*x(2,1)
  x(3,2)*x(2,0) - x(3,0)*x(2,2)
  x(3,3)*x(2,0) - x(3,0)*x(2,3)
  x(3,2)*x(2,1) - x(3,1)*x(2,2)
  x(3,3)*x(2,1) - x(3,1)*x(2,3)
  x(3,3)*x(2,2) - x(3,2)*x(2,3)
"""

FRAME_GROEBNER_TEXT = """\
reduced basis (lex), 20 elements
  x(1,1)*x(0,0) - x(1,0)*x(0,1)
  x(1,2)*x(0,0) - x(1,0)*x(0,2)
  x(1,2)*x(0,1) - x(1,1)*x(0,2)
  x(1,3)*x(0,0) - x(1,0)*x(0,3)
  x(1,3)*x(0,1) - x(1,1)*x(0,3)
  x(1,3)*x(0,2) - x(1,2)*x(0,3)
  x(2,1)*x(0,0) - x(2,0)*x(0,1)
  x(2,1)*x(1,0) - x(2,0)*x(1,1)
  x(2,3)*x(0,2) - x(2,2)*x(0,3)
  x(2,3)*x(1,2) - x(2,2)*x(1,3)
  x(3,1)*x(0,0) - x(3,0)*x(0,1)
  x(3,1)*x(1,0) - x(3,0)*x(1,1)
  x(3,1)*x(2,0) - x(3,0)*x(2,1)
  x(3,2)*x(2,0) - x(3,0)*x(2,2)
  x(3,2)*x(2,1) - x(3,1)*x(2,2)
  x(3,3)*x(0,2) - x(3,2)*x(0,3)
  x(3,3)*x(1,2) - x(3,2)*x(1,3)
  x(3,3)*x(2,0) - x(3,0)*x(2,3)
  x(3,3)*x(2,1) - x(3,1)*x(2,3)
  x(3,3)*x(2,2) - x(3,2)*x(2,3)
"""


@pytest.fixture()
def frame_file(tmp_path):
    path = tmp_path / "frame.poly"
    path.write_text(FRAME_DOC)
    return str(path)


@pytest.fixture()
def unit_file(tmp_path):
    path = tmp_path / "unit.poly"
    path.write_text(UNIT_DOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChecks:
    def test_check_simple_false_on_frame(self, capsys, frame_file):
        code, out, _ = run(capsys, "check-simple", "--input", frame_file)
        assert code == 1
        assert out.strip() == "false"

    def test_check_simple_true_json(self, capsys, unit_file):
        code, out, _ = run(capsys, "check-simple", "--input", unit_file, "--json")
        assert code == 0
        assert json.loads(out) == {"simple": True}

    def test_module_entry_point(self, unit_file):
        # python -m polyminor runs the same CLI as the console script
        src = str(Path(polyminor.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "polyminor", "check-simple", "--input", unit_file, "--json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"simple": True}

    def test_check_convex(self, capsys, tmp_path):
        path = tmp_path / "s.poly"
        path.write_text(S_TETROMINO_DOC)
        code, out, _ = run(capsys, "check-convex", "--input", str(path))
        assert code == 0
        assert out.strip() == "true"


class TestAlgebraCommands:
    def test_gens_counts_frame(self, capsys, frame_file):
        code, out, _ = run(capsys, "gens", "--input", frame_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 20
        assert len(payload["generators"]) == 20

    def test_groebner_equals_gens_on_frame(self, capsys, frame_file):
        code, out, _ = run(capsys, "groebner", "--input", frame_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 20

    def test_gens_human_output_on_frame(self, capsys, frame_file):
        assert run(capsys, "gens", "--input", frame_file) == (0, FRAME_GENS_TEXT, "")

    def test_groebner_human_output_on_frame(self, capsys, frame_file):
        assert run(capsys, "groebner", "--input", frame_file) == (0, FRAME_GROEBNER_TEXT, "")

    def test_quadratic_gb_exit_codes(self, capsys, frame_file, tmp_path):
        code, out, _ = run(capsys, "quadratic-gb", "--input", frame_file)
        assert (code, out.strip()) == (0, "true")
        s_path = tmp_path / "s.poly"
        s_path.write_text(S_TETROMINO_DOC)
        code, out, _ = run(capsys, "quadratic-gb", "--input", str(s_path))
        assert (code, out.strip()) == (1, "false")

    def test_prime_frame(self, capsys, frame_file):
        code, out, _ = run(capsys, "prime", "--input", frame_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "prime"
        assert payload["witness"] is None

    def test_degree_cap_exhaustion_exits_3(self, capsys, tmp_path):
        path = tmp_path / "s.poly"
        path.write_text(S_TETROMINO_DOC)
        code, _, err = run(
            capsys, "groebner", "--input", str(path), "--degree-cap", "2"
        )
        assert code == 3
        assert "error" in err


class TestLocalize:
    def test_frame_instance(self, capsys, tmp_path):
        path = tmp_path / "hole.poly"
        path.write_text(HOLE_DOC)
        code, out, _ = run(capsys, "localize", "--input", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hypothesis_violations"] == []
        assert payload["corner_count"] == 5
        assert payload["p_prime"] == [[1, 0], [2, 0], [2, 1]]
        assert payload["all_checks_pass"] is True
        assert set(payload["checks"]) == {
            "nonzerodivisor", "p_prime_polyomino", "p_prime_simple",
            "ideal_correspondence",
        }

    def test_requires_bounding(self, capsys, unit_file):
        code, _, err = run(capsys, "localize", "--input", unit_file)
        assert code == 2
        assert "bounding" in err

    def test_violating_hypotheses_exit_1(self, capsys, tmp_path):
        path = tmp_path / "edge.poly"
        path.write_text("bounding 0 0 2 2\ncell 0 0\n")
        code, out, _ = run(capsys, "localize", "--input", str(path), "--json")
        assert code == 1
        assert json.loads(out)["hypothesis_violations"] == ["touches_boundary"]

    def test_family_output_pinned(self, capsys, tmp_path):
        # exit code and stdout of both modes on every family instance
        digest = hashlib.sha256()
        path = tmp_path / "instance.poly"
        for bounding, inner in localization_family():
            lo, hi = bounding.lower_left, bounding.upper_right
            path.write_text(
                f"bounding {lo.i} {lo.j} {hi.i} {hi.j}\n"
                + "".join(f"cell {c.i} {c.j}\n" for c in sorted(inner.cells))
            )
            for extra in ((), ("--json",)):
                code, out, _ = run(capsys, "localize", "--input", str(path), *extra)
                digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "c5acf8cc637e1ee019e30ffefd17d6beeac21702fffa9e4e2141086f7b05634a"
        )


class TestGraphRep:
    def test_unit_cell_representable(self, capsys, unit_file):
        code, out, _ = run(capsys, "graph-rep", "--input", unit_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "representable"
        assert len(payload["edges"]) == 4

    def test_frame_not_representable(self, capsys, frame_file):
        code, out, _ = run(capsys, "graph-rep", "--input", frame_file, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "not_representable"
        assert payload["edges"] is None
        assert payload["trace_events"] > 0

    def test_budget_exhaustion_exits_3(self, capsys, frame_file):
        code, out, _ = run(
            capsys, "graph-rep", "--input", frame_file, "--budget-seconds", "0",
        )
        assert code == 3
        assert "timeout" in out


class TestDocumentsCommands:
    def test_complement_serializes(self, capsys, tmp_path):
        path = tmp_path / "hole.poly"
        path.write_text(HOLE_DOC)
        code, out, _ = run(capsys, "complement", "--input", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bounding 0 0 3 3"
        assert len([l for l in lines if l.startswith("cell")]) == 8
        assert "cell 1 1" not in lines

    def test_render(self, capsys, unit_file):
        code, out, _ = run(capsys, "render", "--input", unit_file)
        assert code == 0
        assert out == "+-+\n|#|\n+-+\n"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(UNIT_DOC))
        code, out, _ = run(capsys, "check-simple", "--input", "-")
        assert code == 0
        assert out.strip() == "true"


class TestEnumerateAndSurvey:
    def test_enumerate_ids(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--count", "2", "--json")
        assert code == 0
        assert json.loads(out) == ["2c:0.0,0.1", "2c:0.0,1.0"]

    def test_survey_table(self, capsys):
        code, out, _ = run(capsys, "survey", "--max-cells", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("id")
        assert "1c:0.0" in lines[1]
        assert "representable" in lines[1]

    def test_survey_ndjson(self, capsys):
        code, out, _ = run(capsys, "survey", "--max-cells", "1", "--json")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["id"] == "1c:0.0"
        assert payload["prime"] is True


class TestParserReuse:
    """One parser per process answers every call as a freshly built one does."""

    @staticmethod
    def calls(tmp_path, frame_file, unit_file):
        hole = tmp_path / "hole.poly"
        hole.write_text(HOLE_DOC)
        return [
            ["check-simple", "--input", frame_file],
            ["check-convex", "--input", frame_file, "--json"],
            ["gens", "--input", frame_file],
            ["groebner", "--input", frame_file, "--json"],
            ["quadratic-gb", "--input", frame_file],
            ["prime", "--input", frame_file, "--json"],
            ["localize", "--input", str(hole), "--json"],
            ["graph-rep", "--input", unit_file, "--json"],
            ["complement", "--input", str(hole)],
            ["enumerate", "--count", "3", "--json"],
            ["survey", "--max-cells", "2", "--json"],
            ["render", "--input", frame_file],
        ]

    @staticmethod
    def interleaved(capsys, calls):
        """Each call twice, the rounds interleaved, an argparse error after each."""
        seen = []
        for _ in range(2):
            for argv in calls:
                seen.append(run(capsys, *argv)[:2])
                with pytest.raises(SystemExit) as exc:
                    main([argv[0], "--no-such-option"])
                assert exc.value.code == 2
                capsys.readouterr()
        return seen

    def test_outputs_equal_fresh_parsers(self, capsys, monkeypatch, tmp_path, frame_file, unit_file):
        calls = self.calls(tmp_path, frame_file, unit_file)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            fresh = self.interleaved(capsys, calls)
        cli._build_parser.cache_clear()
        assert self.interleaved(capsys, calls) == fresh
        assert cli._build_parser.cache_info().misses == 1

    def test_subcommand_defaults_stay_apart(self):
        parser = cli._build_parser()
        for _ in range(2):
            survey = parser.parse_args(["survey", "--max-cells", "1"])
            prime = parser.parse_args(["prime", "--input", "-"])
            assert survey.budget_seconds == DEFAULT_ROW_BUDGET
            assert prime.budget_seconds is None
            assert not hasattr(survey, "input") and not hasattr(prime, "max_cells")


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-simple", "--input", "/nonexistent.poly")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("cell zero zero\n")
        code, _, err = run(capsys, "gens", "--input", str(path))
        assert code == 2
        assert "line 1" in err

    def test_disconnected_input(self, capsys, tmp_path):
        path = tmp_path / "scatter.poly"
        path.write_text("cell 0 0\ncell 5 5\n")
        code, _, err = run(capsys, "check-simple", "--input", str(path))
        assert code == 2
        assert "edge-connected" in err
