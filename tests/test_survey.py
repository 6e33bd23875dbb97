import hashlib
import importlib
import json
import pickle
from collections import Counter

import pytest

from polyminor.binomials import Binomial, Monomial, generators, point_var
from polyminor.geometry import CellCollection, Point
from polyminor.groebner import BudgetExceeded
from polyminor.survey import (
    row_id,
    row_json,
    rows_ndjson,
    rows_table,
    survey,
    survey_row,
)
from polyminor.toric import TorsionWitness, is_prime


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

    def test_certifies_primality_once(self, block_2x2, frame, monkeypatch):
        # the package exports a function named survey, hiding the module
        survey_module = importlib.import_module("polyminor.survey")
        graphrep = importlib.import_module("polyminor.graphrep")
        calls = Counter()

        def counting(key, original):
            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            return counted

        for module, prefix in ((survey_module, "survey"), (graphrep, "graphrep")):
            for name in ("is_prime", "generators"):
                counted = counting(f"{prefix}.{name}", getattr(module, name))
                monkeypatch.setattr(module, name, counted)
        cases = [
            # the search's accept test computes the certificate, and the
            # row reads it off the verdict
            (
                block_2x2,
                "representable",
                {"graphrep.generators": 1, "graphrep.is_prime": 1},
            ),
            # quadrics refute every frame labeling, so the row computes it
            # after the search
            (
                frame,
                "not_representable",
                {
                    "graphrep.generators": 1,
                    "survey.generators": 1,
                    "survey.is_prime": 1,
                },
            ),
        ]
        for shape, graph_rep, expected in cases:
            calls.clear()
            row = survey_row(shape, budget_seconds=None)
            assert row.prime is True
            assert row.graph_rep == graph_rep
            assert calls == expected

    def test_search_timeout_leaves_budget_to_is_prime(self, frame, monkeypatch):
        survey_module = importlib.import_module("polyminor.survey")

        def starved(*args, **kwargs):
            raise BudgetExceeded("graph labeling search exceeded its time budget")

        monkeypatch.setattr(survey_module, "search_labeling", starved)
        row = survey_row(frame, budget_seconds=None)
        assert row.prime is True
        assert row.certificate is not None and row.certificate.is_prime
        assert row.prime_note is None
        assert row.graph_rep == "timeout"
        assert row.labeling is None

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


class TestPickle:
    def test_round_trip(self, frame, u_pentomino):
        x, y, z = (point_var(Point(0, k)) for k in range(3))

        def binomial(plus, minus):
            return Binomial.make(Monomial.from_vars(plus), Monomial.from_vars(minus))

        unsaturated = is_prime([binomial((x, y), (x, z))])
        torsion = is_prime([binomial((x, x), (y, y))])
        assert isinstance(unsaturated.witness, Binomial)
        assert isinstance(torsion.witness, TorsionWitness)
        row = survey_row(u_pentomino, budget_seconds=None)
        assert row.certificate is not None and row.labeling is not None
        values = [
            frame,
            CellCollection([(0, 0), (2, 2)]),
            *generators(frame),
            unsaturated,
            torsion,
            row,
        ]
        for value in values:
            back = pickle.loads(pickle.dumps(value))
            assert type(back) is type(value)
            assert back == value
        assert pickle.loads(pickle.dumps(row)).certificate.rank == row.certificate.rank
