"""The three workloads: their instances, the timed query, and the checks.

An instance is one shape plus every question its workload asks about it.
`query` is the only code that runs inside the timed region; `check`
compares its output with the golden table (golden.json) and verifies the
certificates, and runs outside the timed region.

The seed picks the order of the instances and, on `large`, the translation
of every shape.  The shapes themselves are fixed, so every seed asks for
the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field

from polyminor.binomials import generators
from polyminor.cli import main as cli_main
from polyminor.enumeration import enumerate_polyominoes
from polyminor.geometry import (
    CellCollection,
    Interval,
    Point,
    complement,
    is_convex,
    is_polyomino,
)
from polyminor.graphrep import search_labeling, verify_representation
from polyminor.groebner import buchberger, ideal_membership
from polyminor.localization import localization_hypotheses, verify_localization
from polyminor.survey import row_id, survey_row
from polyminor.toric import is_prime

@dataclass
class Instance:
    key: str
    payload: object
    golden_key: str = ""
    path: str = ""  # the document a `large` instance is read from
    commands: tuple[str, ...] = ()
    verified: set = field(default_factory=set)  # certificates already checked


# ---- symmetry ----------------------------------------------------------


def _transform(cells, t: int) -> list[tuple[int, int]]:
    """One of the eight symmetries of the square, then shifted to the origin."""
    out = []
    for i, j in cells:
        if t & 4:
            i, j = j, i
        if t & 1:
            i = -i
        if t & 2:
            j = -j
        out.append((i, j))
    lo_i = min(i for i, _ in out)
    lo_j = min(j for _, j in out)
    return sorted((i - lo_i, j - lo_j) for i, j in out)


def _mirror(cells):
    """Reflected left to right: a rising diagonal becomes a falling one."""
    return _transform(cells, 1)


# ---- corpus --------------------------------------------------------------


def corpus_shapes() -> list:
    """Every polyomino with at most four cells, and the two straight 5-cell rows.

    The straight rows are the most expensive survey rows of the 5-cell
    corpus; the whole 5-cell corpus takes minutes per pass.
    """
    shapes = [s for n in range(1, 5) for s in enumerate_polyominoes(n)]
    for shape in enumerate_polyominoes(5):
        box = shape.bounding_interval()
        if box.width == 1 or box.height == 1:
            shapes.append(shape)
    return shapes


def corpus_instances() -> list[Instance]:
    out = []
    for shape in corpus_shapes():
        ident = row_id(shape)
        out.append(Instance(ident, shape, golden_key=ident))
    return out


def corpus_query(inst: Instance):
    return survey_row(inst.payload, budget_seconds=None)


def corpus_check(inst: Instance, row, golden: dict) -> str | None:
    want = golden["corpus"][inst.golden_key]
    got = {
        "simple": row.simple,
        "convex": row.convex,
        "quadratic_gb": row.quadratic_gb,
        "prime": row.prime,
        "graph_rep": row.graph_rep,
    }
    if got != want:
        return f"verdicts {got} differ from golden {want}"
    cert = row.certificate
    if cert is None or cert.is_prime != row.prime:
        return "primality certificate missing or disagrees with the verdict"
    if cert.is_prime and not (
        cert.lattice_saturated and cert.saturation_equal and cert.witness is None
    ):
        return "prime certificate is inconsistent"
    if row.graph_rep == "representable":
        if row.labeling is None:
            return "representable verdict without a labeling"
        if row.labeling.edges not in inst.verified:
            if not verify_representation(inst.payload, row.labeling):
                return "labeling kernel differs from the ideal"
            inst.verified.add(row.labeling.edges)
    return None


# ---- holes ---------------------------------------------------------------


def localization_family() -> list[tuple[Interval, CellCollection]]:
    """Intervals of up to 4x4 cells minus an interior convex polyomino."""
    family = []
    for w in range(1, 5):
        for h in range(1, 5):
            bounding = Interval(Point(0, 0), Point(w, h))
            interior = [(i, j) for i in range(1, w - 1) for j in range(1, h - 1)]
            for k in range(1, len(interior) + 1):
                for combo in itertools.combinations(interior, k):
                    inner = CellCollection(combo)
                    if not is_polyomino(inner) or not is_convex(inner):
                        continue
                    if localization_hypotheses(bounding, inner):
                        continue
                    family.append((bounding, inner))
    return family


def holes_key(bounding: Interval, inner: CellCollection) -> str:
    b = bounding.upper_right
    return f"{b.i}x{b.j}-" + ",".join(f"{c.i}.{c.j}" for c in inner)


def holes_instance(bounding: Interval, inner: CellCollection) -> Instance:
    key = holes_key(bounding, inner)
    return Instance(key, (bounding, inner, complement(bounding, inner)), golden_key=key)


def holes_instances() -> list[Instance]:
    """The 3x3 frame and every 4x4 box with a one-cell or a three-cell hole.

    These nine are the most expensive members of the family: the one-cell
    holes for is_prime, the three-cell holes for the refutation search.
    """
    kept = ((Point(3, 3), 1), (Point(4, 4), 1), (Point(4, 4), 3))
    return [
        holes_instance(bounding, inner)
        for bounding, inner in localization_family()
        if (bounding.upper_right, len(inner)) in kept
    ]


def holes_query(inst: Instance):
    bounding, inner, ambient = inst.payload
    report = verify_localization(bounding, inner)
    certificate = is_prime(generators(ambient))
    verdict = search_labeling(ambient)
    return report, certificate, verdict


def holes_check(inst: Instance, output, golden: dict) -> str | None:
    report, certificate, verdict = output
    want = golden["holes"][inst.golden_key]
    got = {
        "all_checks_pass": report.all_checks_pass,
        "prime": certificate.verdict,
        "graph_rep": verdict.status,
    }
    if got != want:
        return f"verdicts {got} differ from golden {want}"
    if not verdict.trace:
        return "refutation has no trace"
    witnesses = tuple(e.witness for e in verdict.trace if e.kind == "reject_labeling")
    if None in witnesses:
        return "rejected labeling without a witness"
    if witnesses not in inst.verified:
        basis = buchberger(generators(inst.payload[2]))
        if any(ideal_membership(w, basis) for w in witnesses):
            return "a rejection witness lies inside the ideal"
        inst.verified.add(witnesses)
    return None


# ---- large ---------------------------------------------------------------


def _ring(width: int, height: int, thickness: int = 1):
    t = thickness
    return [
        (i, j)
        for i in range(width)
        for j in range(height)
        if not (t <= i < width - t and t <= j < height - t)
    ]


def _staircase(steps: int, tread: int = 2):
    return sorted({(s + d, s) for s in range(steps) for d in range(tread)})


def _comb(teeth: int, length: int):
    spine = {(i, 0) for i in range(2 * teeth - 1)}
    return sorted(spine | {(2 * t, j) for t in range(teeth) for j in range(1, length + 1)})


def _rectangle(width: int, height: int):
    return [(i, j) for i in range(width) for j in range(height)]


def _pair(dx: int, dy: int, block: int = 1):
    square = [(i, j) for i in range(block) for j in range(block)]
    return square + [(dx + i, dy + j) for i, j in square]


_QUERIES = ("gens", "quadratic-gb", "check-simple", "check-convex", "render")
_SPARSE_QUERIES = ("gens", "quadratic-gb", "render")  # not a polyomino

# name -> (cells, runs groebner).  Sizes and orientations are fixed because
# the cost of inner_intervals depends on where the cells sit in the bounding
# box (a rising pair costs about five times a falling one); the seed only
# translates the shapes.  Groebner runs only where it takes about a second.
LARGE_SHAPES = {
    "ring-40x40": (_ring(40, 40), False),
    "ring-36x28": (_ring(36, 28), False),
    "ring-32x32": (_ring(32, 32), False),
    "ring-24x24-w2": (_ring(24, 24, 2), False),
    "ring-16x16": (_ring(16, 16), False),
    "ring-8x8": (_ring(8, 8), True),
    "staircase-12-rising": (_staircase(12), True),
    "staircase-12-falling": (_mirror(_staircase(12)), True),
    "staircase-40-rising": (_staircase(40), False),
    "staircase-40-falling": (_mirror(_staircase(40)), False),
    "staircase-24-t3": (_staircase(24, 3), False),
    "comb-15x10-up": (_comb(15, 10), False),
    "comb-15x10-down": (_transform(_comb(15, 10), 2), False),
    "comb-10x6-right": (_transform(_comb(10, 6), 4), False),
    "rectangle-5x5": (_rectangle(5, 5), True),
    "rectangle-3x20": (_rectangle(3, 20), False),
    "rectangle-8x8": (_rectangle(8, 8), False),
    "pair-300x300-rising": (_pair(300, 300), False),
    "pair-300x300-falling": (_mirror(_pair(300, 300)), False),
    "pair-400x100-rising": (_pair(400, 100), False),
    "pair-400x100-falling": (_mirror(_pair(400, 100)), False),
    "pair-150x150-b2-rising": (_pair(150, 150, 2), False),
    "pair-150x150-b2-falling": (_mirror(_pair(150, 150, 2)), False),
}


def large_commands(name: str) -> tuple[str, ...]:
    cells, with_groebner = LARGE_SHAPES[name]
    base = _QUERIES if is_polyomino(CellCollection(cells)) else _SPARSE_QUERIES
    return base + (("groebner",) if with_groebner else ())


def document(name: str, cells) -> str:
    return f"name {name}\n" + "".join(f"cell {i} {j}\n" for i, j in cells)


def large_instances(rng: random.Random, workdir: str) -> list[Instance]:
    """Each shape at a seeded translation, written as a document."""
    out = []
    for name, (cells, _) in LARGE_SHAPES.items():
        di, dj = rng.randrange(64), rng.randrange(64)
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(document(name, [(i + di, j + dj) for i, j in cells]))
        out.append(
            Instance(
                f"{name}+{di},{dj}",
                None,
                golden_key=name,
                path=path,
                commands=large_commands(name),
            )
        )
    return out


def run_cli(command: str, path: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, "--input", path, "--json"])
    return code, out.getvalue()


def large_query(inst: Instance):
    return [(command, *run_cli(command, inst.path)) for command in inst.commands]


def large_answers(results) -> dict:
    """The golden-table projection of one instance's CLI outputs."""
    got = {}
    for command, code, text in results:
        if command == "render":
            got["render_sha256"] = hashlib.sha256(text.encode()).hexdigest()
            got["render_code"] = code
            continue
        payload = json.loads(text)
        if command == "gens":
            got["gens"] = payload["count"]
        elif command == "quadratic-gb":
            got["quadratic_gb"] = payload["quadratic_gb"]
        elif command == "check-simple":
            got["simple"] = payload["simple"]
        elif command == "check-convex":
            got["convex"] = payload["convex"]
        elif command == "groebner":
            got["groebner"] = payload["count"]
        got[f"{command}_code"] = code
    return got


def groebner_agrees(results) -> bool:
    """Whether quadratic-gb says true exactly when groebner returns the gens."""
    texts = {command: text for command, _, text in results}
    if "groebner" not in texts:
        return True
    gens = set(json.loads(texts["gens"])["generators"])
    basis = set(json.loads(texts["groebner"])["elements"])
    return (basis == gens) == json.loads(texts["quadratic-gb"])["quadratic_gb"]


def large_check(inst: Instance, results, golden: dict) -> str | None:
    want = golden["large"][inst.golden_key]
    got = large_answers(results)
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"answers differ from golden on {diff}"
    if not groebner_agrees(results):
        return "quadratic-gb disagrees with groebner output equal to gens"
    return None


# ---- dispatch -------------------------------------------------------------


def build(workload: str, seed: int, workdir: str) -> list[Instance]:
    """The workload's instances in the seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        instances = corpus_instances()
    elif workload == "holes":
        instances = holes_instances()
    elif workload == "large":
        instances = large_instances(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(instances)
    return instances


QUERY = {"corpus": corpus_query, "holes": holes_query, "large": large_query}
CHECK = {"corpus": corpus_check, "holes": holes_check, "large": large_check}
