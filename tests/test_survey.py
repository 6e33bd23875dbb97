import hashlib
import importlib
import json

import pytest

from polyminor.survey import (
    row_id,
    row_json,
    rows_ndjson,
    rows_table,
    survey,
    survey_row,
)


@pytest.fixture(scope="module")
def frame_row(frame):
    return survey_row(frame, budget_seconds=None)


class TestRowId:
    def test_translation_invariant(self, domino_h):
        assert row_id(domino_h) == row_id(domino_h.translate(3, 9))
        assert row_id(domino_h) == "2c:0.0,1.0"

    def test_frame(self, frame):
        ident = row_id(frame)
        assert ident.startswith("8c:")
        assert ident.count(",") == 7


class TestSurveyRow:
    def test_unit_cell_row(self, unit_cell):
        row = survey_row(unit_cell, budget_seconds=None)
        assert row.simple and row.convex and row.quadratic_gb
        assert row.prime is True
        assert row.graph_rep == "representable"
        assert row.labeling is not None
        assert row.trace_events > 0

    def test_frame_row(self, frame_row):
        assert frame_row.cell_count == 8
        assert frame_row.simple is False
        assert frame_row.convex is False
        assert frame_row.quadratic_gb is True
        assert frame_row.prime is True
        assert frame_row.graph_rep == "not_representable"
        assert frame_row.labeling is None

    def test_s_tetromino_row(self, s_tetromino):
        row = survey_row(s_tetromino, budget_seconds=None)
        assert row.simple is True
        assert row.convex is True  # row and column runs are contiguous
        assert row.quadratic_gb is False
        assert row.prime is True
        assert row.graph_rep == "representable"

    def test_certifies_primality_once(self, block_2x2, monkeypatch):
        # the package exports a function named survey, hiding the module
        survey_module = importlib.import_module("polyminor.survey")
        graphrep = importlib.import_module("polyminor.graphrep")
        calls = []
        original = survey_module.is_prime

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(survey_module, "is_prime", counting)
        monkeypatch.setattr(graphrep, "is_prime", counting)
        row = survey_row(block_2x2, budget_seconds=None)
        assert row.prime is True
        assert row.graph_rep == "representable"
        assert len(calls) == 1

    def test_starved_budget_times_out(self, frame):
        row = survey_row(frame, budget_seconds=0.0)
        assert row.prime is None
        assert row.prime_note
        assert row.graph_rep == "timeout"
        assert row.certificate is None


class TestSurveySweep:
    def test_counts_and_order(self):
        rows = survey(2, budget_seconds=None)
        assert [r.ident for r in rows] == [
            "1c:0.0", "2c:0.0,0.1", "2c:0.0,1.0",
        ]

    def test_small_shapes_all_prime_and_representable(self):
        for row in survey(3, budget_seconds=None):
            assert row.prime is True
            assert row.graph_rep == "representable"


class TestJson:
    def test_key_order_fixed(self, frame_row):
        payload = row_json(frame_row)
        assert list(payload) == [
            "id", "cells", "simple", "convex", "quadratic_gb",
            "prime", "graph_rep", "certificates",
        ]
        assert list(payload["certificates"]) == ["prime", "prime_note", "graph"]

    def test_frame_payload(self, frame_row):
        payload = row_json(frame_row)
        assert payload["cells"] == 8
        assert payload["prime"] is True
        cert = payload["certificates"]["prime"]
        assert cert["verdict"] == "prime"
        assert cert["witness"] is None
        graph = payload["certificates"]["graph"]
        assert graph["status"] == "not_representable"
        assert graph["vertex_count"] is None
        assert graph["trace_events"] > 0

    def test_ndjson_lines_parse(self):
        rows = survey(2, budget_seconds=None)
        text = rows_ndjson(rows)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_ndjson_deterministic(self):
        a = rows_ndjson(survey(2, budget_seconds=None))
        b = rows_ndjson(survey(2, budget_seconds=None))
        assert a == b

    @pytest.mark.parametrize(
        "max_cells, digest",
        [
            (5, "e94593e54ccfdb86c36670246985167b6c76996be0e467ec1d51ccf1bff83711"),
            (6, "aa5249588c533182807748d2c35b0f2237e0b5f65e495557fe30cf4201bde09b"),
        ],
    )
    def test_ndjson_digest_pinned(self, max_cells, digest):
        # every verdict, certificate, labeling and trace count, byte for byte
        text = rows_ndjson(survey(max_cells, budget_seconds=None))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTable:
    def test_header_and_alignment(self):
        rows = survey(2, budget_seconds=None)
        table = rows_table(rows)
        lines = table.splitlines()
        assert lines[0].split() == [
            "id", "cells", "simple", "convex", "quadratic_gb", "prime", "graph_rep",
        ]
        assert len(lines) == 4
        assert "true" in lines[1]

    def test_unknown_prime_shown_as_question_mark(self, frame):
        row = survey_row(frame, budget_seconds=0.0)
        table = rows_table([row])
        assert "?" in table.splitlines()[1]
