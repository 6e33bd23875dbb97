"""Deciding whether a cell collection's ideal is the edge ideal of a graph.

A labeling assigns to every lattice point of the collection an edge of an
abstract simple graph, distinct points to distinct edges.  The ideal is
graph-representable when some labeling makes the kernel of the induced
monomial map (variable -> product of its two endpoint variables) equal to
the ideal of inner minors.  Each inner minor forces the multiset of the
four endpoint vertices on its diagonal to equal the multiset on its
anti-diagonal, which turns the search into a finite constraint problem:
unit propagation assigns forced edges, branching enumerates the few edge
candidates a partially assigned constraint leaves open, and fresh
vertices are introduced one representative at a time.  Vertex names
carry no meaning, so one seed assignment of one minor stands for every
renaming of it.

A complete labeling satisfies every constraint, so each inner minor maps
to zero and the minor ideal I, whose generators span the exponent lattice
L, lies in the kernel J.  J is the lattice ideal of the saturated lattice
M of integer relations among the edge vectors, so it is prime.  M is the
kernel of the graph's unsigned incidence matrix, which has rank V - b for
V vertices and b bipartite components (Grossman-Kulkarni-Schochetman,
Linear Algebra Appl. 1995), so rank M = E - V + b with E edges.  Hence
J = I exactly when I is prime and rank L = rank M.  If so, I equals its
saturation by the product of all variables, which is the lattice ideal
of the saturated L (Eisenbud-Sturmfels, "Binomial ideals"), and a
saturated L inside M of equal rank is M.  Conversely every binomial of
I = J has its exponent difference in L, so M lies in L.  Labelings are
accepted by this exact test, which reads I's is_prime certificate,
computed once per search, and a count on the graph: a labeling costs no
elimination, no Smith step and no LEX basis.

Kernel quadrics are tested first.  The minors span the quadrics of I, so
a quadric u - v lies in I exactly when a chain of minors, each read as
an edge joining its two monomials, joins u to v (quadric_classes).  A
kernel quadric outside I rejects the labeling and is its witness.

A labeling rejected by the lattice test still yields a kernel element
outside the ideal as its witness.  One Smith step on the labeling's
matrix gives a basis B of M, and I lies in J because every constraint
holds, the ideal I_B of B lies in J, and J is prime, so
J = I_B : (prod x)^oo = (I + I_B) : (prod x)^oo (Sturmfels, "Groebner
Bases and Convex Polytopes", Lemma 12.2).  Only this branch builds the
reduced LEX basis of I, to find the first kernel element outside it, so
the search spends no deadline or degree cap on a basis before branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterable

from .binomials import LEX, Binomial, Monomial, Var, aux_var, generators, point_var
from .geometry import CellCollection
from .groebner import (
    DEFAULT_DEGREE_CAP,
    Deadline,
    GroebnerBasis,
    buchberger,
    ideal_membership,
    quadric_classes,
)
from .toric import (
    MonomialMap,
    PrimalityCertificate,
    _relations,
    _vector_binomial,
    is_prime,
    saturate,
    toric_ideal_of_map,
)

__all__ = [
    "GEdge",
    "Constraint",
    "GraphLabeling",
    "TraceEvent",
    "RepVerdict",
    "relation_constraints",
    "bipartite_grid_labeling",
    "verify_representation",
    "search_labeling",
]

GEdge = tuple[int, int]


def _mkedge(u: int, v: int) -> GEdge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Constraint:
    """Multiset equation phi(l1) + phi(l2) = phi(r1) + phi(r2) on edge endpoints."""

    index: int
    left: tuple[Var, Var]
    right: tuple[Var, Var]

    @property
    def slots(self) -> tuple[Var, Var, Var, Var]:
        return (*self.left, *self.right)

    def side_of(self, v: Var) -> tuple[tuple[Var, Var], tuple[Var, Var]]:
        """(own side, other side) from v's point of view."""
        if v in self.left:
            return self.left, self.right
        return self.right, self.left


def _constraints(gens: Iterable[Binomial]) -> tuple[Constraint, ...]:
    """Minor k of [a, b] as Constraint(k, (a, b), ((a.i, b.j), (b.i, a.j)))."""
    return tuple(
        Constraint(k, f.plus.vars()[::-1], f.minus.vars()[::-1])
        for k, f in enumerate(gens)
    )


def relation_constraints(collection: CellCollection) -> tuple[Constraint, ...]:
    """One endpoint-multiset constraint per inner minor, in canonical order."""
    return _constraints(generators(collection))


@dataclass(frozen=True)
class GraphLabeling:
    """Injective, loop-free assignment of variables to graph edges."""

    edges: tuple[tuple[Var, GEdge], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", tuple(sorted(self.edges, key=lambda p: p[0]))
        )
        seen: set[GEdge] = set()
        for v, e in self.edges:
            if e[0] == e[1]:
                raise ValueError(f"loop edge on {v}")
            if e in seen:
                raise ValueError(f"edge {e} assigned twice")
            seen.add(e)

    @property
    def assignment(self) -> dict[Var, GEdge]:
        return dict(self.edges)

    @property
    def vertex_count(self) -> int:
        return len({u for _, e in self.edges for u in e})

    def monomial_map(self) -> MonomialMap:
        return MonomialMap.of(
            {
                v: Monomial.from_vars((aux_var("t", e[0]), aux_var("t", e[1])))
                for v, e in self.edges
            }
        )


def bipartite_grid_labeling(collection: CellCollection) -> GraphLabeling:
    """The row/column labeling: point (i, j) gets the edge {col_i, row_j}.

    Always injective and loop-free, but no witness of representability
    even for simple collections: its kernel ideal differs from the minor
    ideal on the four U pentominoes, for one.
    """
    vars_ = sorted(point_var(p) for p in collection.vertex_set)
    cols = sorted({v.key[0] for v in vars_})
    rows = sorted({v.key[1] for v in vars_})
    col_id = {i: k for k, i in enumerate(cols)}
    row_id = {j: len(cols) + k for k, j in enumerate(rows)}
    return GraphLabeling(
        tuple((v, _mkedge(col_id[v.key[0]], row_id[v.key[1]])) for v in vars_)
    )


def verify_representation(
    collection: CellCollection,
    labeling: GraphLabeling,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> bool:
    """Whether the labeling's kernel ideal equals the collection's minor ideal."""
    assigned = {v for v, _ in labeling.edges}
    needed = {point_var(p) for p in collection.vertex_set}
    if not needed <= assigned:
        raise ValueError("labeling does not cover every lattice point")
    kernel = toric_ideal_of_map(
        labeling.monomial_map(), degree_cap=degree_cap, deadline=deadline
    )
    return kernel == buchberger(
        generators(collection), LEX, degree_cap=degree_cap, deadline=deadline
    ).elements


@dataclass(frozen=True)
class TraceEvent:
    """One step of the search; conflicts and rejections carry snapshots."""

    kind: str  # seed|assign|force|conflict|reject_labeling|accept|exhausted
    detail: str
    depth: int
    var: Var | None = None
    edge: GEdge | None = None
    assignment: tuple[tuple[Var, GEdge], ...] | None = None
    witness: Binomial | None = None


@dataclass(frozen=True)
class RepVerdict:
    status: str  # "representable" | "not_representable"
    labeling: GraphLabeling | None
    trace: tuple[TraceEvent, ...]
    # is_prime of the collection's generators, as the accept test used it;
    # None when no complete labeling reached the lattice test
    certificate: PrimalityCertificate | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def representable(self) -> bool:
        return self.status == "representable"


def _multiset(e1: GEdge, e2: GEdge) -> tuple[int, ...]:
    return tuple(sorted(e1 + e2))


def _subtract(total: Iterable[int], part: Iterable[int]) -> list[int] | None:
    """Exact multiset subtraction; None when part is not contained in total."""
    rest = list(total)
    for x in part:
        if x in rest:
            rest.remove(x)
        else:
            return None
    return rest


def _complete(
    con: Constraint, assignment: dict[Var, GEdge], used: dict[GEdge, Var]
) -> tuple[Var | None, GEdge | None, str | None] | None:
    """What the constraint says once at most one of its slots is open.

    None while two or more slots are open.  Otherwise (open slot, edge,
    reason): the slot is None when all four are assigned, the edge is the
    one the multiset equation forces on the open slot, and the reason,
    None when the constraint can hold, says why it cannot.
    """
    vals = [assignment.get(s) for s in con.slots]
    missing = [k for k, val in enumerate(vals) if val is None]
    if len(missing) > 1:
        return None
    if not missing:
        if _multiset(vals[0], vals[1]) != _multiset(vals[2], vals[3]):
            return None, None, "violated"
        return None, None, None
    k = missing[0]
    hole_var = con.slots[k]
    if k < 2:
        rest = _subtract(_multiset(vals[2], vals[3]), vals[1 - k])
    else:
        rest = _subtract(_multiset(vals[0], vals[1]), vals[5 - k])
    if rest is None:
        return hole_var, None, "admits no completion"
    edge = _mkedge(rest[0], rest[1])
    if edge[0] == edge[1]:
        return hole_var, None, f"forces a loop on {hole_var}"
    if edge in used:
        return hole_var, edge, f"forces {hole_var} onto the edge of {used[edge]}"
    return hole_var, edge, None


def _relation_rank(edges: list[GEdge]) -> int:
    """E - V + b: the rank of the integer relations among the edges' endpoint vectors.

    The unsigned incidence matrix of a graph with V vertices, counting
    those some edge uses, and b bipartite components has rank V - b
    (Grossman-Kulkarni-Schochetman, Linear Algebra Appl. 1995); its
    kernel has rank E - V + b.  One breadth-first 2-colouring per
    component finds b.
    """
    adjacent: dict[int, list[int]] = {}
    for u, w in edges:
        adjacent.setdefault(u, []).append(w)
        adjacent.setdefault(w, []).append(u)
    colour: dict[int, int] = {}
    bipartite = 0
    for start in adjacent:
        if start in colour:
            continue
        colour[start] = 0
        queue, odd = [start], False
        for u in queue:
            for w in adjacent[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    odd = True
        bipartite += not odd
    return len(edges) - len(adjacent) + bipartite


class _Search:
    """Search state for one collection: a single assignment and its undo trail.

    assign and undo are the only ways the assignment changes, so one state
    serves the whole search and a branch is left by undoing to its mark.
    A candidate edge uses assigned vertices and at most the two next fresh
    ones, so each assignment raises fresh by two at most and fresh stays
    at most twice the length of the trail: every branch has finitely many
    candidates.
    """

    def __init__(
        self, collection: CellCollection, deadline: Deadline, degree_cap: int
    ) -> None:
        self.variables = tuple(sorted(point_var(p) for p in collection.vertex_set))
        self.gens = generators(collection)
        self.constraints = _constraints(self.gens)
        if not self.constraints:
            raise ValueError("collection has no inner minors to represent")
        self.by_var: dict[Var, tuple[Constraint, ...]] = {
            v: tuple(c for c in self.constraints if v in c.slots)
            for v in self.variables
        }
        self.classes = quadric_classes(self.gens)
        self.deadline = deadline
        self.degree_cap = degree_cap
        self.certificate: PrimalityCertificate | None = None
        # per pair of variable pairs: their quadric if it lies outside the
        # ideal, else None; the ideal is fixed, so this holds for the search
        self.outside: dict[tuple[tuple[Var, Var], tuple[Var, Var]], Binomial | None] = {}
        self.assignment: dict[Var, GEdge] = {}
        self.used: dict[GEdge, Var] = {}
        self.trail: list[Var] = []
        # fresh[k]: the lowest vertex above every edge of the first k on the trail
        self.fresh: list[int] = [0]
        self.trace: list[TraceEvent] = []

    def assign(self, v: Var, e: GEdge) -> None:
        self.assignment[v] = e
        self.used[e] = v
        self.trail.append(v)
        self.fresh.append(max(self.fresh[-1], e[1] + 1))

    def undo(self, mark: int) -> None:
        """Unassign the variables assigned since the trail had length mark."""
        while len(self.trail) > mark:
            del self.used[self.assignment.pop(self.trail.pop())]
            self.fresh.pop()

    def snapshot(self) -> tuple[tuple[Var, GEdge], ...]:
        return tuple(sorted(self.assignment.items()))

    def log(self, kind: str, detail: str, depth: int, **kw) -> None:
        self.trace.append(TraceEvent(kind, detail, depth, **kw))

    # ---- propagation -------------------------------------------------

    def propagate(self, depth: int, mark: int) -> bool:
        """Force the constraints left with one open slot; False on a conflict.

        At a fixpoint every constraint has two open slots or more, or is
        complete and satisfied, and only an assignment to one of its slots
        can change that.  So only the dirty constraints, those touching a
        variable on the trail since mark, are visited, and a force makes
        its variable's constraints dirty.  They are visited in cyclic
        index order: the smallest dirty index at or after the last one
        visited, else the smallest.  The constraints a full sweep would
        visit besides these do nothing, so the forces, conflicts and
        snapshots come in the order of repeated sweeps over every
        constraint.
        """
        dirty = {con.index for v in self.trail[mark:] for con in self.by_var[v]}
        at = 0
        while dirty:
            at = min((k for k in dirty if k >= at), default=min(dirty))
            dirty.remove(at)
            con = self.constraints[at]
            step = _complete(con, self.assignment, self.used)
            if step is None:
                continue
            hole_var, edge, reason = step
            if reason is not None:
                self.log(
                    "conflict",
                    f"minor {con.index} {reason}",
                    depth,
                    var=hole_var,
                    edge=edge,
                    assignment=self.snapshot(),
                )
                return False
            if hole_var is None:
                continue
            self.assign(hole_var, edge)
            self.log("force", f"forced by minor {con.index}", depth,
                     var=hole_var, edge=edge)
            dirty.update(c.index for c in self.by_var[hole_var])
        return True

    # ---- candidate generation ----------------------------------------

    def _viable(self, v: Var, e: GEdge) -> bool:
        """Whether giving v the edge e leaves every constraint of v satisfiable."""
        mark = len(self.trail)
        self.assign(v, e)
        viable = True
        for con in self.by_var[v]:
            step = _complete(con, self.assignment, self.used)
            if step is not None and step[2] is not None:
                viable = False
                break
        self.undo(mark)
        return viable

    def _constraint_candidates(self, v: Var, con: Constraint) -> list[GEdge] | None:
        """Finite superset of edges v may take under this constraint, or None.

        Runs after propagation has reached its fixpoint, so v is never the
        only open slot of the constraint.
        """
        own, other = con.side_of(v)
        partner = own[0] if own[1] == v else own[1]
        pe = self.assignment.get(partner)
        o1, o2 = self.assignment.get(other[0]), self.assignment.get(other[1])
        if o1 is not None and o2 is not None:
            total = _multiset(o1, o2)
            out = set()
            for a in range(4):
                for b in range(a + 1, 4):
                    e = _mkedge(total[a], total[b])
                    rest = [total[k] for k in range(4) if k not in (a, b)]
                    mate = _mkedge(rest[0], rest[1])
                    if e[0] == e[1] or mate[0] == mate[1] or e == mate:
                        continue
                    out.add(e)
            return sorted(out)
        if pe is not None and (o1 is not None) != (o2 is not None):
            oe = o1 if o1 is not None else o2
            # endpoints of the assigned opposite edge not covered by the partner
            need = [u for u in oe if u not in pe]
            if len(need) == 2:
                return [oe]
            if len(need) == 1:
                d = need[0]
                hi = self.fresh[-1] + 1
                return [_mkedge(d, z) for z in range(hi) if z != d]
        return None

    def branch_candidates(self) -> tuple[Var, list[GEdge]] | None:
        unassigned = [v for v in self.variables if v not in self.assignment]
        if not unassigned:
            return None
        best: tuple[int, Var, list[GEdge]] | None = None
        for v in unassigned:
            domain: list[GEdge] | None = None
            for con in self.by_var[v]:
                cand = self._constraint_candidates(v, con)
                if cand is not None and (domain is None or len(cand) < len(domain)):
                    domain = cand
            if domain is not None:
                if best is None or len(domain) < best[0]:
                    best = (len(domain), v, domain)
        if best is None:
            # no constraint pins anything down; enumerate for the first
            # unassigned variable touching an assigned one
            pick = None
            for v in unassigned:
                if any(s in self.assignment for c in self.by_var[v] for s in c.slots):
                    pick = v
                    break
            if pick is None:
                pick = unassigned[0]
            hi = self.fresh[-1] + 2
            domain = [
                _mkedge(u, w) for u in range(hi) for w in range(u + 1, hi)
            ]
            best = (len(domain), pick, domain)
        _, v, domain = best
        # every candidate endpoint is an assigned vertex or a next fresh one
        return v, [e for e in domain if e not in self.used and self._viable(v, e)]

    # ---- full labeling verification ----------------------------------

    @cached_property
    def ideal_basis(self) -> GroebnerBasis:
        """The reduced LEX basis of the minors, built on first use.

        Only a rejection by strict containment reads it: the quadric test
        and the accept test need no basis.
        """
        return buchberger(
            self.gens, LEX, degree_cap=self.degree_cap, deadline=self.deadline
        )

    def _quadratic_witness(self) -> Binomial | None:
        # an edge's key counts its endpoints, one byte per vertex; a pair
        # has four endpoints, so no byte carries and equal keys are equal
        # endpoint multisets
        edges = map(self.assignment.__getitem__, self.variables)
        keys = [(1 << 8 * u) + (1 << 8 * w) for u, w in edges]
        groups: dict[int, list[tuple[Var, Var]]] = {}
        for (a, ka), (b, kb) in combinations_with_replacement(
            zip(self.variables, keys), 2
        ):
            groups.setdefault(ka + kb, []).append((a, b))
        # a pair alone in its group gives no quadric
        shared = [g for g in groups.values() if len(g) > 1]
        shared.sort(key=lambda g: _multiset(*map(self.assignment.__getitem__, g[0])))
        for first, *rest in shared:
            for pair in rest:
                quadric = first, pair
                if quadric not in self.outside:
                    u, w = Monomial.from_vars(first), Monomial.from_vars(pair)
                    member = self.classes.get(u, u) == self.classes.get(w, w)
                    self.outside[quadric] = None if member else Binomial.make(u, w)
                if self.outside[quadric] is not None:
                    return self.outside[quadric]
        return None

    def verify_full(self, depth: int) -> GraphLabeling | None:
        """The labeling when its kernel equals the ideal, else None.

        A kernel quadric outside the ideal, found by the minors' quadric
        classes, rejects first.  Otherwise the labeling is accepted when
        the ideal's is_prime certificate, computed the first time a
        labeling gets here, is prime with rank E - V + b (_relation_rank).
        Only a labeling that fails this count runs a Smith step on the
        edges' endpoint vectors, with the vertices as rows in ascending
        order.  The kernel is the saturation of the minors together with
        that lattice basis as binomials (see the module docstring), and
        the first element of its reduced LEX basis outside the ideal,
        tested against ideal_basis, becomes the rejection witness.
        """
        witness = self._quadratic_witness()
        if witness is not None:
            self.log(
                "reject_labeling",
                "labeling kernel contains a quadric outside the ideal",
                depth,
                assignment=self.snapshot(),
                witness=witness,
            )
            return None
        if self.certificate is None:
            self.certificate = is_prime(
                self.gens, degree_cap=self.degree_cap, deadline=self.deadline
            )
        edges = [self.assignment[v] for v in self.variables]
        if self.certificate.is_prime and self.certificate.rank == _relation_rank(edges):
            self.log("accept", "kernel equals the ideal", depth,
                     assignment=self.snapshot())
            return GraphLabeling(tuple(self.assignment.items()))
        lattice = _relations([dict.fromkeys(e, 1) for e in edges], self.deadline)
        basis = [_vector_binomial(col, self.variables) for col in lattice]
        kernel = saturate(
            [*self.gens, *basis], degree_cap=self.degree_cap, deadline=self.deadline
        )
        for f in kernel:
            if not ideal_membership(f, self.ideal_basis):
                self.log(
                    "reject_labeling",
                    "labeling kernel strictly contains the ideal",
                    depth,
                    assignment=self.snapshot(),
                    witness=f,
                )
                return None
        raise RuntimeError(
            "the lattice test rejects a labeling whose kernel lies in the ideal"
        )

    # ---- depth-first search ------------------------------------------

    def dfs(self, depth: int, mark: int = 0) -> GraphLabeling | None:
        """Extend the current assignment to an accepted labeling, or None.

        Apart from the variables on the trail since mark, the assignment
        is a propagation fixpoint; at the root mark is 0, so propagation
        starts from the whole trail.  Returns with its own assignments
        still in place; a caller leaves the branch by undoing to the mark
        it took before assigning, and passes that mark down.  Each
        level assigns at least one variable, so the depth is at most the
        number of variables.
        """
        self.deadline.check("graph labeling search")
        if not self.propagate(depth, mark):
            return None
        picked = self.branch_candidates()
        if picked is None:
            return self.verify_full(depth)
        v, candidates = picked
        if not candidates:
            self.log(
                "conflict",
                f"no viable edge for {v}",
                depth,
                var=v,
                assignment=self.snapshot(),
            )
            return None
        mark = len(self.trail)
        for e in candidates:
            self.assign(v, e)
            self.log("assign", "branch", depth + 1, var=v, edge=e)
            found = self.dfs(depth + 1, mark)
            if found is not None:
                return found
            self.undo(mark)
        return None


# Diagonal, then anti-diagonal edges of the seed minor (see search_labeling).
_SEED_EDGES = ((0, 1), (2, 3), (0, 2), (1, 3))


def search_labeling(
    collection: CellCollection,
    *,
    deadline: Deadline | None = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> RepVerdict:
    """Exhaustive search for a representing edge labeling.

    The search starts from one seed minor, the one whose slots sit in
    the most constraints.  Its diagonal edges share no vertex, since two
    edges through a common vertex leave no pair of distinct loop-free
    edges with the same endpoint multiset, so up to renaming they are
    (0, 1) and (2, 3).  The anti-diagonal then splits {0, 1, 2, 3} into
    one of four matchings, and the swaps (0 1), (2 3) and (0 1)(2 3) fix
    the diagonal while carrying the matching (0, 2), (1, 3) onto the
    other three.  The constraints and the kernel test do not see vertex
    names, so a labeling extends one matching exactly when its renamed
    image extends another, and one exhaustive case decides all four.
    Fresh vertices enter one representative at a time: up to renaming,
    new endpoints are the next vertices above every assigned edge, so a
    candidate edge takes its endpoints from the assigned ones and the
    next two.  Each assignment thus raises that bound by two at most,
    every branch has finitely many candidates, the depth is at most the
    number of lattice points, and an exhausted search is therefore a
    proof of non-representability.  Each complete labeling is verified
    with no LEX basis on the common paths: its kernel quadrics are tested
    by the minors' quadric classes, and it is accepted when the ideal is
    prime with a lattice of rank E - V + b.  Only a labeling that count
    rejects runs a Smith step, and its witness is the first element of
    the kernel, seeded with the minors and that lattice's basis, that
    lies outside the ideal; only this case builds the ideal's LEX basis,
    to test that (see the module docstring).  So the deadline and the
    degree cap are spent on no basis before branching.  The verdict
    carries the is_prime certificate the accept test used, or None when
    no complete labeling reached that test.
    """
    state = _Search(collection, deadline or Deadline.unlimited(), degree_cap)
    seed = max(
        state.constraints,
        key=lambda c: (sum(len(state.by_var[s]) for s in c.slots), -c.index),
    )
    for slot, e in zip(seed.slots, _SEED_EDGES):
        state.assign(slot, e)
    state.log(
        "seed",
        f"minor {seed.index}, the one case up to vertex renaming",
        0,
        assignment=state.snapshot(),
    )
    labeling = state.dfs(0)
    if labeling is None:
        state.log("exhausted", "the seed case is refuted", 0)
    status = "not_representable" if labeling is None else "representable"
    return RepVerdict(status, labeling, tuple(state.trace), state.certificate)
