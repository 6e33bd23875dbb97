"""Command-line workbench over the polyomino ideal toolkit.

Exit codes: 0 when the command succeeds (and any decided property holds),
1 when a decided property is false, 2 on input errors, 3 when a time
budget or degree cap is exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .binomials import generators
from .documents import ParseError, PolyominoDocument, parse_document, render_ascii, serialize_document
from .enumeration import enumerate_polyominoes
from .geometry import CellCollection, complement, is_convex, is_polyomino, is_simple
from .graphrep import search_labeling
from .groebner import (
    DEFAULT_DEGREE_CAP,
    BudgetExceeded,
    Deadline,
    DegreeCapExceeded,
    buchberger,
    quadratic_gb_condition,
)
from .localization import verify_localization
from .survey import DEFAULT_ROW_BUDGET, row_id, rows_ndjson, rows_table, survey
from .toric import is_prime

__all__ = ["main"]


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        self.code = code
        super().__init__(message)


def _read_document(path: str) -> PolyominoDocument:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from None
    try:
        return parse_document(text)
    except ParseError as exc:
        raise _CliError(2, f"{path}: {exc}") from None


def _collection(args) -> CellCollection:
    return _read_document(args.input).collection()


def _polyomino(args) -> CellCollection:
    col = _collection(args)
    if not is_polyomino(col):
        raise _CliError(2, "input cells are not edge-connected")
    return col


def _bounded_document(args) -> PolyominoDocument:
    doc = _read_document(args.input)
    if doc.bounding is None:
        raise _CliError(2, "this command requires a 'bounding' line in the input")
    return doc


def _deadline(args) -> Deadline:
    return Deadline.after_seconds(getattr(args, "budget_seconds", None))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _verdict(name: str, test, read):
    """A handler printing test(read(args)) under the key name; exit 1 when false."""

    def handler(args) -> int:
        value = test(read(args))
        _emit(args, {name: value}, str(value).lower())
        return 0 if value else 1

    return handler


def _cmd_gens(args) -> int:
    texts = [repr(g) for g in generators(_collection(args))]
    _emit(
        args,
        {"count": len(texts), "generators": texts},
        "\n".join([f"{len(texts)} generators"] + [f"  {t}" for t in texts]),
    )
    return 0


def _cmd_groebner(args) -> int:
    basis = buchberger(
        generators(_collection(args)),
        degree_cap=args.degree_cap,
        deadline=_deadline(args),
    )
    texts = [repr(g) for g in basis]
    _emit(
        args,
        {"order": basis.order_tag, "count": len(texts), "elements": texts},
        "\n".join(
            [f"reduced basis ({basis.order_tag}), {len(texts)} elements"]
            + [f"  {t}" for t in texts]
        ),
    )
    return 0


def _cmd_prime(args) -> int:
    cert = is_prime(
        generators(_collection(args)),
        degree_cap=args.degree_cap,
        deadline=_deadline(args),
    )
    payload = cert.as_json()
    witness = payload["witness"]
    _emit(
        args,
        payload,
        f"{cert.verdict} (lattice_saturated={cert.lattice_saturated}, "
        f"saturation_equal={cert.saturation_equal}"
        + (f", witness={witness}" if witness else "")
        + ")",
    )
    return 0 if cert.is_prime else 1


def _cmd_localize(args) -> int:
    doc = _bounded_document(args)
    report = verify_localization(
        doc.bounding,
        doc.collection(),
        degree_cap=args.degree_cap,
        deadline=_deadline(args),
    )
    payload = {
        "hypothesis_violations": list(report.hypothesis_violations),
        "corner_count": len(report.corner_triples),
        "corners": [[list(t.p), list(t.r), list(t.q)] for t in report.corner_triples],
        "removed_cells": sorted([c.i, c.j] for c in report.removed_cells),
        "p_prime": sorted([c.i, c.j] for c in report.p_prime.cells) if report.p_prime else None,
        "checks": report.checks,
        "all_checks_pass": report.all_checks_pass,
    }
    human_lines = []
    if report.hypothesis_violations:
        human_lines.append("hypotheses violated: " + ", ".join(report.hypothesis_violations))
    else:
        human_lines.append(f"corners: {[tuple(t.p) for t in report.corner_triples]}")
        human_lines.append(f"p_prime: {sorted(tuple(c) for c in report.p_prime.cells)}")
        for name, ok in report.checks.items():
            human_lines.append(f"  {name}: {str(ok).lower()}")
    _emit(args, payload, "\n".join(human_lines))
    return 0 if report.all_checks_pass else 1


def _cmd_graph_rep(args) -> int:
    try:
        verdict = search_labeling(
            _collection(args),
            deadline=_deadline(args),
            degree_cap=args.degree_cap,
        )
    except BudgetExceeded:
        _emit(args, {"status": "timeout"}, "timeout")
        return 3
    edges = None
    if verdict.labeling is not None:
        edges = [[repr(v), list(e)] for v, e in verdict.labeling.edges]
    _emit(
        args,
        {"status": verdict.status, "edges": edges, "trace_events": len(verdict.trace)},
        verdict.status
        + (f"\n  vertices: {verdict.labeling.vertex_count}" if verdict.labeling else "")
        + f"\n  trace events: {len(verdict.trace)}",
    )
    return 0 if verdict.representable else 1


def _cmd_complement(args) -> int:
    doc = _bounded_document(args)
    comp = complement(doc.bounding, doc.collection())
    out = PolyominoDocument(
        name=None, cells=comp.cells_sorted, bounding=doc.bounding, holes=()
    )
    if args.json:
        print(json.dumps({"cells": [[c.i, c.j] for c in comp.cells_sorted]}))
    else:
        sys.stdout.write(serialize_document(out))
    return 0


def _cmd_enumerate(args) -> int:
    shapes = enumerate_polyominoes(args.count)
    if args.json:
        print(json.dumps([row_id(s) for s in shapes]))
    else:
        for s in shapes:
            print(row_id(s))
    return 0


def _cmd_survey(args) -> int:
    rows = survey(
        args.max_cells,
        budget_seconds=args.budget_seconds,
        degree_cap=args.degree_cap,
    )
    if args.json:
        sys.stdout.write(rows_ndjson(rows))
    else:
        sys.stdout.write(rows_table(rows))
    return 0


def _cmd_render(args) -> int:
    print(render_ascii(_collection(args)))
    return 0


@functools.cache  # built on first use; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyminor",
        description="Inner-minor ideals of polyominoes: bases, primality, graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *, needs_input=True, budget=False, cap=False):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("--input", required=True, help="polyomino document ('-' for stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument("--budget-seconds", type=float, default=None)
        if cap:
            p.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
        p.set_defaults(handler=handler)
        return p

    add("check-simple", _verdict("simple", is_simple, _polyomino))
    add("check-convex", _verdict("convex", is_convex, _polyomino))
    add("gens", _cmd_gens)
    add("groebner", _cmd_groebner, budget=True, cap=True)
    add("quadratic-gb", _verdict("quadratic_gb", quadratic_gb_condition, _collection))
    add("prime", _cmd_prime, budget=True, cap=True)
    add("localize", _cmd_localize, budget=True, cap=True)
    add("graph-rep", _cmd_graph_rep, budget=True, cap=True)
    add("complement", _cmd_complement)
    enum_p = add("enumerate", _cmd_enumerate, needs_input=False)
    enum_p.add_argument("--count", type=int, required=True)
    survey_p = add("survey", _cmd_survey, needs_input=False, cap=True)
    survey_p.add_argument("--max-cells", type=int, required=True)
    survey_p.add_argument("--budget-seconds", type=float, default=DEFAULT_ROW_BUDGET)
    add("render", _cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, DegreeCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
