"""Build golden.json, the verdicts every benchmark run is compared against.

    python3 perfbench/golden.py

Computes every answer the workloads can ask for (all 91 polyominoes with
at most five cells, the 20-instance localization family, and every `large`
shape), checks them against the facts
the paper states, and writes golden.json next to this file.  Exits 1
without writing when a fact fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from polyminor.binomials import generators  # noqa: E402
from polyminor.enumeration import enumerate_polyominoes  # noqa: E402
from polyminor.geometry import CellCollection  # noqa: E402
from polyminor.graphrep import bipartite_grid_labeling, verify_representation  # noqa: E402
from polyminor.groebner import buchberger, ideal_membership  # noqa: E402
from polyminor.survey import row_id, survey_row  # noqa: E402

import workloads  # noqa: E402

# The four orientations of the U pentomino, whose row/column grid labeling
# does not represent the ideal (the search still finds a representation).
U_PENTOMINOES = {
    CellCollection(cells).canonical_key()
    for cells in (
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)],
        [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)],
        [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)],
        [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)],
    )
}


def corpus_table(problems: list[str]) -> dict:
    table = {}
    grid_failures = set()
    for n in range(1, 6):
        for shape in enumerate_polyominoes(n):
            row = survey_row(shape, budget_seconds=None)
            table[row_id(shape)] = {
                "simple": row.simple,
                "convex": row.convex,
                "quadratic_gb": row.quadratic_gb,
                "prime": row.prime,
                "graph_rep": row.graph_rep,
            }
            if not (row.simple and row.prime and row.graph_rep == "representable"):
                problems.append(f"corpus {row_id(shape)}: not simple, prime and representable")
            if not verify_representation(shape, bipartite_grid_labeling(shape)):
                grid_failures.add(shape.canonical_key())
    if grid_failures != U_PENTOMINOES:
        problems.append("grid labeling fails on shapes other than the U pentominoes")
    return table


def holes_table(problems: list[str]) -> dict:
    table = {}
    for bounding, inner in workloads.localization_family():
        inst = workloads.holes_instance(bounding, inner)
        report, certificate, verdict = workloads.holes_query(inst)
        table[inst.golden_key] = {
            "all_checks_pass": report.all_checks_pass,
            "prime": certificate.verdict,
            "graph_rep": verdict.status,
        }
        if not report.all_checks_pass or not certificate.is_prime:
            problems.append(f"holes {inst.key}: localization or primality fails")
        if verdict.status != "not_representable":
            problems.append(f"holes {inst.key}: representable")
        basis = buchberger(generators(inst.payload[2]))
        for event in verdict.trace:
            if event.kind == "reject_labeling" and ideal_membership(event.witness, basis):
                problems.append(f"holes {inst.key}: witness inside the ideal")
    if len(table) != 20:
        problems.append(f"localization family has {len(table)} instances, not 20")
    return table


def large_table(problems: list[str], workdir: str) -> dict:
    table = {}
    path = os.path.join(workdir, "shape.txt")
    for name, (cells, _) in workloads.LARGE_SHAPES.items():
        answers = []
        for di, dj in ((0, 0), (63, 41)):  # answers ignore translation
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(workloads.document(name, [(i + di, j + dj) for i, j in cells]))
            results = [(c, *workloads.run_cli(c, path)) for c in workloads.large_commands(name)]
            answers.append(workloads.large_answers(results))
            if not workloads.groebner_agrees(results):
                problems.append(f"large {name}: quadratic-gb disagrees with groebner")
        if answers[0] != answers[1]:
            problems.append(f"large {name}: answers change under translation")
        table[name] = answers[0]
    return table


def main() -> int:
    problems: list[str] = []
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        golden = {
            "corpus": corpus_table(problems),
            "holes": holes_table(problems),
            "large": large_table(problems, workdir),
        }
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {HERE / 'golden.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
