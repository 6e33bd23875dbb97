"""Batch classification of enumerated polyominoes.

Each surveyed shape gets one row recording simplicity, convexity, the
quadratic basis condition, the primality certificate, and the graph
representability verdict.  Rows serialize to stable JSON so reruns are
byte-identical; long searches are marked rather than dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .binomials import generators
from .enumeration import enumerate_polyominoes
from .geometry import CellCollection, is_convex, is_simple
from .graphrep import GraphLabeling, RepVerdict, search_labeling
from .groebner import (
    DEFAULT_DEGREE_CAP,
    BudgetExceeded,
    Deadline,
    DegreeCapExceeded,
    quadratic_gb_condition,
)
from .toric import PrimalityCertificate, is_prime

__all__ = [
    "SurveyRow",
    "row_id",
    "survey_row",
    "survey",
    "row_json",
    "rows_ndjson",
    "rows_table",
]

DEFAULT_ROW_BUDGET = 30.0


def row_id(collection: CellCollection) -> str:
    """Content-derived identifier, stable across runs and translations."""
    cells = collection.canonical_key()
    return f"{len(cells)}c:" + ",".join(f"{c.i}.{c.j}" for c in cells)


@dataclass(frozen=True)
class SurveyRow:
    ident: str
    cell_count: int
    simple: bool
    convex: bool
    quadratic_gb: bool
    prime: bool | None
    prime_note: str | None
    graph_rep: str  # representable | not_representable | timeout
    certificate: PrimalityCertificate | None
    labeling: GraphLabeling | None
    trace_events: int


def survey_row(
    collection: CellCollection,
    *,
    budget_seconds: float | None = DEFAULT_ROW_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> SurveyRow:
    """Classify one collection; the budget covers the whole row.

    The graph search runs first, and its verdict carries the primality
    certificate whenever a complete labeling reached its accept test;
    otherwise the row computes it here, so each row computes it once.
    When the budget cannot cover both, the search has the first claim on
    it: a search that stops on the budget or the degree cap still leaves
    is_prime to try with whatever the deadline has left.
    """
    deadline = Deadline.after_seconds(budget_seconds)
    verdict: RepVerdict | None = None
    graph_status = "timeout"
    try:
        verdict = search_labeling(collection, deadline=deadline, degree_cap=degree_cap)
        graph_status = verdict.status
    except (BudgetExceeded, DegreeCapExceeded):
        pass
    certificate = verdict.certificate if verdict else None
    prime_note: str | None = None
    if certificate is None:
        try:
            certificate = is_prime(
                generators(collection), degree_cap=degree_cap, deadline=deadline
            )
        except (BudgetExceeded, DegreeCapExceeded) as exc:
            prime_note = str(exc)
    return SurveyRow(
        ident=row_id(collection),
        cell_count=len(collection),
        simple=is_simple(collection),
        convex=is_convex(collection),
        quadratic_gb=quadratic_gb_condition(collection),
        prime=certificate.is_prime if certificate else None,
        prime_note=prime_note,
        graph_rep=graph_status,
        certificate=certificate,
        labeling=verdict.labeling if verdict else None,
        trace_events=len(verdict.trace) if verdict else 0,
    )


def survey(
    max_cells: int,
    *,
    budget_seconds: float | None = DEFAULT_ROW_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> tuple[SurveyRow, ...]:
    """Rows for every polyomino with up to max_cells cells, canonical order."""
    rows = []
    for n in range(1, max_cells + 1):
        for shape in enumerate_polyominoes(n):
            rows.append(
                survey_row(
                    shape, budget_seconds=budget_seconds, degree_cap=degree_cap
                )
            )
    return tuple(rows)


def row_json(row: SurveyRow) -> dict:
    """JSON projection with a fixed key order."""
    cert = None if row.certificate is None else row.certificate.as_json()
    graph = {
        "status": row.graph_rep,
        "vertex_count": row.labeling.vertex_count if row.labeling else None,
        "trace_events": row.trace_events,
    }
    return {
        "id": row.ident,
        "cells": row.cell_count,
        "simple": row.simple,
        "convex": row.convex,
        "quadratic_gb": row.quadratic_gb,
        "prime": row.prime,
        "graph_rep": row.graph_rep,
        "certificates": {"prime": cert, "prime_note": row.prime_note, "graph": graph},
    }


def rows_ndjson(rows) -> str:
    return "\n".join(json.dumps(row_json(r)) for r in rows) + "\n"


def rows_table(rows) -> str:
    header = ("id", "cells", "simple", "convex", "quadratic_gb", "prime", "graph_rep")
    body = [
        (
            r.ident,
            str(r.cell_count),
            str(r.simple).lower(),
            str(r.convex).lower(),
            str(r.quadratic_gb).lower(),
            "?" if r.prime is None else str(r.prime).lower(),
            r.graph_rep,
        )
        for r in rows
    ]
    widths = [max(len(row[k]) for row in [header, *body]) for k in range(len(header))]
    lines = []
    for row in [header, *body]:
        lines.append("  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
