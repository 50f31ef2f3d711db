"""Exact communication-complexity computations on small explicit functions.

Matrices are stored row-wise as strings over ``0``, ``1`` and ``*`` where
``*`` marks promise-excluded (undefined) cells.  Undefined cells act as
wildcards inside rectangles: a z-monochromatic rectangle must avoid defined
(1-z) cells only.

Exact solvers: minimum rectangle cover (branch and bound over maximal
rectangles), minimum disjoint cover (rank-bounded search with an integer
program as fallback), deterministic protocol depth (one memoized search
over row and column bipartitions, whose first optimal split at each node
gives the protocol tree, stopped early at the rank bound on rectangles
with no undefined cell), maximum fooling set (maximum clique), maximum
rectangle measure.

The cover and the measure search the maximal z-monochromatic rectangles.
The column side of each is the intersection of its rows' allowed-column
masks (an intent of formal concept analysis), so ``_concepts`` lists them
as the intersection closure of those masks.

The cover search enters a node with uncovered cells U only while its picks
plus ceil(|U| / max_c |c & U|), over the candidates c, can beat the
incumbent.  No cover of U takes fewer rectangles, so the bound prunes only
subtrees with no strictly better leaf: the printed cover stays the first
optimal leaf in depth-first order, the one a weaker bound finds.

Every solver but the protocol depth reads the matrix through ``_merged``:
equal rows and equal columns become one merged row or column, ``masks[z][r]``
holds the merged columns with a defined z in merged row r, and a merged cell
(r, c) is the flat bit ``r * nc + c``.  Each optimum is the same on the
merged matrix, since a cover, partition or fooling set of the original
restricts to the group representatives and one of the merged matrix
expands over the groups; ``_rectangle`` expands a merged (row mask, column
mask) pair back to the original indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .automata import EPSILON, CapError, CcError, Dfa, accepts

UNDEF = "*"

MATERIALIZE_CAP = 12          # 2^n x 2^n builtin matrices
PROBLEM_CELL_CAP = 4096       # rows of language/monoid problems
COVER_CAP = 64                # per side, exact cover guarantee
DISJOINT_CAP = 16             # per side, partition search
FOOLING_CAP = 64
MEASURE_CAP = 32
# maximal rectangles: intersections kept; partition candidates: (R, C)
# pairs visited
CONCEPT_CAP = 300_000
# nodes of the rank-bounded partition search; past it the disjoint cover
# falls back to the integer program
PARTITION_NODE_CAP = 300_000
# work of one cover, clique or depth search call, in the units its docstring
# names; at n <= 3 the built-ins spend at most 5 220 500 (PIP2 ZERO_SIDED depth)
WORK_CAP = 6_000_000


class _Budget:
    """Work meter of one search call, charged before each step it counts."""

    def __init__(self, search, cap=None):
        self.search, self.cap, self.spent = search, WORK_CAP if cap is None else cap, 0

    def charge(self, units):
        self.spent += units
        if self.spent > self.cap:
            raise CapError("%s search exceeded %d work units" % (self.search, self.cap))


def _log2ceil(k: int) -> int:
    return (k - 1).bit_length() if k > 1 else 0


@dataclass(frozen=True)
class CommFunction:
    """Two-party (possibly promise) function as an explicit matrix."""

    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    rows: tuple[str, ...]
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if len(self.rows) != len(self.row_labels):
            raise CcError("row count does not match labels")
        if any(len(r) != len(self.col_labels) for r in self.rows):
            raise CcError("row width does not match column labels")
        if len(set(self.row_labels)) != len(self.row_labels) or \
                len(set(self.col_labels)) != len(self.col_labels):
            raise CcError("labels must be distinct")
        cells = set().union(*self.rows)
        if not cells <= {"0", "1", UNDEF}:
            raise CcError("cells must be 0, 1 or %s" % UNDEF)
        if not cells & {"0", "1"}:
            raise CcError("function has no defined cell")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def value(self, i: int, j: int) -> int | None:
        ch = self.rows[i][j]
        return None if ch == UNDEF else int(ch)

    def defined_cells(self):
        for i, row in enumerate(self.rows):
            for j, ch in enumerate(row):
                if ch != UNDEF:
                    yield i, j, int(ch)

    def z_cells(self, z: int):
        target = str(z)
        for i, row in enumerate(self.rows):
            for j, ch in enumerate(row):
                if ch == target:
                    yield i, j

    def count(self, z: int) -> int:
        target = str(z)
        return sum(row.count(target) for row in self.rows)


@dataclass(frozen=True)
class Rectangle:
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if not self.rows or not self.cols:
            raise CcError("rectangles must be nonempty on both sides")

    def cells(self):
        return itertools.product(self.rows, self.cols)


@dataclass(frozen=True)
class Cover:
    """Rectangle list; ``color`` is the covered color, or None for a
    mixed-color disjoint cover."""

    color: int | None
    rectangles: tuple[Rectangle, ...]


@dataclass(frozen=True)
class RectangleMeasure:
    """Non-negative cell weights, sparse; missing cells weigh zero."""

    weights: tuple[tuple[tuple[int, int], object], ...]

    @classmethod
    def from_dict(cls, d) -> "RectangleMeasure":
        for v in d.values():
            if v < 0:
                raise CcError("measure weights must be non-negative")
        return cls(tuple(sorted(d.items())))

    @classmethod
    def indicator(cls, f: CommFunction, z: int) -> "RectangleMeasure":
        return cls.from_dict({(i, j): 1 for i, j in f.z_cells(z)})

    def as_dict(self):
        return dict(self.weights)

    def total(self):
        return sum(v for _, v in self.weights)


# ---------------------------------------------------------------------------
# built-in functions

def _labels(n: int) -> tuple[str, ...]:
    return tuple(format(x, "0%db" % n) for x in range(1 << n))


def _row_strings_from_sets(n, fill, assignments):
    """Build 2^n rows from {row -> {col: char}} sparse assignments."""
    size = 1 << n
    rows = []
    for x in range(size):
        row = bytearray(fill.encode() * size)
        for y, ch in assignments(x):
            row[y] = ord(ch)
        rows.append(row.decode())
    return tuple(rows)


def _submasks(m: int):
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


CC_FUNCTION_NAMES = ("EQ", "NEQ", "DISJ", "LT", "PDISJ", "IP", "PIP2")
PIP2_VARIANTS = ("TWO_SIDED", "ZERO_SIDED")


def builtin_function(name: str, n: int, q: int | None = None,
                     variant: str = "TWO_SIDED") -> CommFunction:
    """Materialize a named two-party function on n-bit inputs.

    PIP2 (promise inner product mod 2) ships in two variants that differ
    in the orientation of the per-position prefix conditions and in which
    outputs carry the promise.  TWO_SIDED promises every input, requiring
    at each mixed position (0,1) an even and (1,0) an odd count of earlier
    common ones; it is the variant under which the block reduction to the
    five-state language verifies exhaustively.  ZERO_SIDED keeps the
    opposite orientation and restricts only the 0-inputs; the same block
    reduction demonstrably fails against it.
    """
    if not (1 <= n <= MATERIALIZE_CAP):
        raise CapError("n=%d outside materialization range 1..%d" % (n, MATERIALIZE_CAP))
    size = 1 << n
    labels = _labels(n)
    full = (1 << n) - 1

    if name == "EQ":
        rows = tuple("0" * x + "1" + "0" * (size - x - 1) for x in range(size))
    elif name == "NEQ":
        rows = tuple("1" * x + "0" + "1" * (size - x - 1) for x in range(size))
    elif name == "LT":
        rows = tuple("0" * x + "1" * (size - x) for x in range(size))
    elif name == "DISJ":
        rows = _row_strings_from_sets(
            n, "0", lambda x: ((y, "1") for y in _submasks(full & ~x)))
    elif name == "PDISJ":
        def cells(x):
            rest = full & ~x
            for s in _submasks(rest):
                yield s, "1"
            for k in range(n):
                if x >> k & 1:
                    for s in _submasks(rest):
                        yield s | (1 << k), "0"
        rows = _row_strings_from_sets(n, UNDEF, cells)
    elif name == "IP":
        if q is None or q < 2:
            raise CcError("IP requires q >= 2")
        rows = tuple(
            "".join("1" if (x & y).bit_count() % q == 0 else "0"
                    for y in range(size))
            for x in range(size))
    elif name == "PIP2":
        if variant not in PIP2_VARIANTS:
            raise CcError("unknown PIP2 variant %r" % variant)
        rows = tuple("".join(_pip2_cell(labels[x], labels[y], variant)
                             for y in range(size)) for x in range(size))
    else:
        raise CcError("unknown built-in function %r" % name)

    params = [("n", n)]
    if name == "IP":
        params.append(("q", q))
        name = "IP_%d" % q
    if name == "PIP2":
        params.append(("variant", variant))
    return CommFunction(name, labels, labels, rows, tuple(params))


def _pip2_cell(xs: str, ys: str, variant: str) -> str:
    inter = sum(a == b == "1" for a, b in zip(xs, ys))
    value = "1" if inter % 2 == 0 else "0"
    prefix_even = True  # IP2 of the empty prefix is 1
    promised = True
    for a, b in zip(xs, ys):
        if variant == "ZERO_SIDED":
            # (0,1) wants an odd earlier count, (1,0) an even one
            if a == "0" and b == "1" and prefix_even:
                promised = False
            if a == "1" and b == "0" and not prefix_even:
                promised = False
        else:
            # (0,1) wants an even earlier count, (1,0) an odd one
            if a == "0" and b == "1" and not prefix_even:
                promised = False
            if a == "1" and b == "0" and prefix_even:
                promised = False
        if a == b == "1":
            prefix_even = not prefix_even
    if variant == "ZERO_SIDED":
        if value == "1":
            return "1"
        return "0" if promised else UNDEF
    return value if promised else UNDEF


# ---------------------------------------------------------------------------
# language and monoid problems

def language_problem(d: Dfa, n: int) -> CommFunction:
    """Alternating-partition word problem: Alice holds the odd letters,
    Bob the even ones, each letter from the alphabet plus the empty letter."""
    if n < 1:
        raise CcError("language problem needs n >= 1")
    letters = (EPSILON,) + tuple(d.alphabet)
    if len(letters) ** n > PROBLEM_CELL_CAP:
        raise CapError("language problem size %d^%d exceeds cap"
                       % (len(letters), n))
    f = language_problem_partition(d, 2 * n, range(0, 2 * n, 2))
    return replace(f, name="language:%s" % ",".join(d.alphabet), params=(("n", n),))


def language_problem_partition(d: Dfa, total: int, alice_positions) -> CommFunction:
    """Word problem under an arbitrary partition of ``total`` positions;
    cross-check helper for the worst-case-partition convention."""
    alice_positions = tuple(sorted(alice_positions))
    if any(not 0 <= p < total for p in alice_positions):
        raise CcError("partition positions out of range")
    if len(set(alice_positions)) != len(alice_positions):
        raise CcError("partition positions repeat")
    bob_positions = tuple(p for p in range(total) if p not in alice_positions)
    letters = (EPSILON,) + tuple(d.alphabet)
    if len(letters) ** max(len(alice_positions), len(bob_positions), 1) > PROBLEM_CELL_CAP:
        raise CapError("partitioned problem exceeds cap")
    a_tuples = list(itertools.product(letters, repeat=len(alice_positions))) or [()]
    b_tuples = list(itertools.product(letters, repeat=len(bob_positions))) or [()]
    rows = []
    for ra in a_tuples:
        row = []
        for rb in b_tuples:
            slots = [EPSILON] * total
            for p, ch in zip(alice_positions, ra):
                slots[p] = ch
            for p, ch in zip(bob_positions, rb):
                slots[p] = ch
            row.append("1" if accepts(d, "".join(slots)) else "0")
        rows.append("".join(row))
    return CommFunction("language-partition", tuple("".join(t) or EPSILON for t in a_tuples),
                        tuple("".join(t) or EPSILON for t in b_tuples),
                        tuple(rows), (("total", total),))


def monoid_problem(om, ideal, n: int) -> CommFunction:
    """Alternating-partition evaluation problem for (M, I)."""
    m = om.monoid if hasattr(om, "monoid") else om
    if n < 1:
        raise CcError("monoid problem needs n >= 1")
    if m.size ** n > PROBLEM_CELL_CAP:
        raise CapError("monoid problem size %d^%d exceeds cap" % (m.size, n))
    members = ideal.members if hasattr(ideal, "members") else frozenset(ideal)
    tuples = list(itertools.product(range(m.size), repeat=n))
    labels = tuple(".".join(m.name_of(x) for x in t) for t in tuples)
    rows = []
    for r in tuples:
        row = []
        for c in tuples:
            p = m.identity
            for a, b in zip(r, c):
                p = m.table[m.table[p][a]][b]
            row.append("1" if p in members else "0")
        rows.append("".join(row))
    return CommFunction("monoid", labels, labels, tuple(rows), (("n", n),))


# ---------------------------------------------------------------------------
# rectangles

def monochromatic_color(f: CommFunction, rect: Rectangle,
                        vacuous: int | None = None) -> int | None:
    """The single defined color inside the rectangle (undefined cells are
    wildcards), None if both colors occur; an all-undefined rectangle is
    monochromatic for either color and reports ``vacuous``."""
    seen = set()
    for i, j in rect.cells():
        v = f.value(i, j)
        if v is not None:
            seen.add(v)
            if len(seen) == 2:
                return None
    if not seen:
        return vacuous
    return seen.pop()


def _merged(f: CommFunction):
    """The matrix with equal rows and equal columns merged, each group in
    order of first occurrence: (row groups, column groups, masks), where
    ``masks[z][r]`` holds the merged columns with a defined z in merged
    row r.  A merged cell (r, c) is flat bit ``r * nc + c``."""
    rows, cols = {}, {}
    for i, row in enumerate(f.rows):
        rows.setdefault(row, []).append(i)
    for j, col in enumerate(zip(*f.rows)):
        cols.setdefault(col, []).append(j)
    reps = [g[0] for g in cols.values()]
    masks = [[sum(1 << c for c, j in enumerate(reps) if row[j] == z)
              for row in rows] for z in "01"]
    return list(rows.values()), list(cols.values()), masks


def _cells(rows_mask, cols_mask, nc):
    """Flat cell bits of the merged rectangle rows_mask x cols_mask."""
    out = 0
    for r in _mask_to_indices(rows_mask):
        out |= cols_mask << (r * nc)
    return out


def _rectangle(row_groups, col_groups, rows_mask, cols_mask) -> Rectangle:
    """The rectangle of the original matrix that a merged mask pair spans."""
    return Rectangle(
        tuple(sorted(i for r in _mask_to_indices(rows_mask) for i in row_groups[r])),
        tuple(sorted(j for c in _mask_to_indices(cols_mask) for j in col_groups[c])))


def _concepts(forbidden, n_cols):
    """All maximal rectangles avoiding the cells of ``forbidden`` (per row,
    a mask of its columns), as sorted (row mask, col mask) pairs with both
    sides nonempty: each intersection of the rows' allowed masks, built row
    by row from all columns, with every row that allows it.  A row at most
    doubles the set, so CapError past CONCEPT_CAP intersections bounds the
    work to twice the cap."""
    allowed = [((1 << n_cols) - 1) & ~m for m in forbidden]
    intents = {(1 << n_cols) - 1}
    for mask in allowed:
        intents |= {inte & mask for inte in intents}
        if len(intents) > CONCEPT_CAP:
            raise CapError("maximal-rectangle enumeration exceeds cap")
    out = []
    for inte in intents:
        ext = sum(1 << r for r, mask in enumerate(allowed) if inte & mask == inte)
        if ext and inte:
            out.append((ext, inte))
    out.sort()
    return out


def _mask_to_indices(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def min_cover(f: CommFunction, z: int):
    """Exact minimum number of z-monochromatic rectangles covering the
    z-cells.  Rectangles may overlap and may include undefined cells.
    Returns (count, Cover).  Branch and bound over maximal rectangles with
    a greedy incumbent."""
    if z not in (0, 1):
        raise CcError("color must be 0 or 1")
    if f.count(z) == 0:
        raise CcError("no %d-cells to cover" % z)
    row_groups, col_groups, masks = _merged(f)
    nr, nc = len(row_groups), len(col_groups)
    if nr > COVER_CAP or nc > COVER_CAP:
        raise CapError("cover search capped at %dx%d distinct rows/columns"
                       % (COVER_CAP, COVER_CAP))
    universe = sum(m << (r * nc) for r, m in enumerate(masks[z]))

    candidates = []
    for ext, inte in _concepts(masks[1 - z], nc):
        cover_mask = _cells(ext, inte, nc) & universe
        if cover_mask:
            candidates.append((ext, inte, cover_mask))

    candidates.sort(key=lambda c: -c[2].bit_count())
    # on a total matrix every maximal rectangle covers all of its cells, so
    # no candidate's coverage contains another's
    if any(UNDEF in row for row in f.rows):
        candidates = _undominated(candidates)

    count, picked = _set_cover_exact(universe, candidates)
    rects = tuple(_rectangle(row_groups, col_groups, ext, inte)
                  for ext, inte, _ in picked)
    return count, Cover(z, rects)


def _undominated(candidates):
    """The candidates whose coverage no earlier (larger-or-equal) kept
    candidate's contains; candidates come sorted by falling coverage."""
    kept = []
    for cand in candidates:
        if not any(cand[2] & ~other[2] == 0 for other in kept):
            kept.append(cand)
    return kept


def _set_cover_exact(universe, candidates):
    """Exact minimum set cover by branch and bound; candidates are
    (ext, inte, cover_mask) triples, deterministic order.

    A child with uncovered cells U is entered only while its picks plus
    need(U) = ceil(|U| / max_c |c & U|) can beat the incumbent.  The
    parent's maximum bounds the child's from above, so the free check
    with it runs first and the exact one second.  Raises CapError past
    WORK_CAP units: one per child checked, one per candidate per coverage
    evaluation."""
    # the candidates' masks as rows of little-endian uint64 words
    n_bytes = 8 * ((universe.bit_length() + 63) // 64)
    data = b"".join(c[2].to_bytes(n_bytes, "little") for c in candidates)
    table = np.frombuffer(data, dtype="<u8").reshape(len(candidates), n_bytes // 8)
    budget = _Budget("set-cover")

    def coverage(uncovered):
        # max_c |c & uncovered| over the candidates
        budget.charge(len(candidates))
        words = np.frombuffer(uncovered.to_bytes(n_bytes, "little"), dtype="<u8")
        return int(np.bitwise_count(table & words).sum(axis=1).max())

    cell_cands = {idx: [] for idx in _mask_to_indices(universe)}
    for c in candidates:
        for idx in _mask_to_indices(c[2]):
            cell_cands[idx].append(c)
    for idx, pick_cands in cell_cands.items():
        if not pick_cands:
            raise CcError("cell %d cannot be covered" % idx)

    # greedy incumbent; max() keeps the first of equally-covering candidates
    covered = 0
    greedy = []
    while covered != universe:
        best = max(candidates, key=lambda c: (c[2] & ~covered).bit_count())
        greedy.append(best)
        covered |= best[2]
    best_count = len(greedy)
    best_sel = list(greedy)
    # branch on the uncovered cell with fewest candidates, the lowest of
    # equals: the first uncovered one in this order
    branch = [(1 << idx, cell_cands[idx])
              for idx in sorted(cell_cands, key=lambda idx: len(cell_cands[idx]))]

    def dfs(covered, sel, most):
        # most: the largest coverage of any candidate on this node's cells
        nonlocal best_count, best_sel
        uncovered = universe & ~covered
        for bit, pick_cands in branch:
            if uncovered & bit:
                break
        picked = len(sel) + 1
        for c in pick_cands:
            budget.charge(1)
            after = covered | c[2]
            rest = universe & ~after
            left = rest.bit_count()
            if not left:
                if picked < best_count:
                    best_count, best_sel = picked, sel + [c]
            elif picked + -(-left // most) < best_count:
                child_most = coverage(rest)
                if picked + -(-left // child_most) < best_count:
                    sel.append(c)
                    dfs(after, sel, child_most)
                    sel.pop()

    most = max(c[2].bit_count() for c in candidates)
    if -(-universe.bit_count() // most) < best_count:
        dfs(0, [], most)
    return best_count, best_sel


def _rank_q(mat) -> int:
    """Exact rank over the rationals of an integer matrix, by fraction-free
    (Bareiss) elimination: every entry stays an integer minor of ``mat``
    and each division by the previous pivot is exact."""
    m = [list(row) for row in mat]
    rows = len(m)
    r = 0
    prev = 1
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        for i in range(r + 1, rows):
            a = m[i][c]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], m[r])]
        prev = p
        r += 1
        if r == rows:
            break
    return r


def _greedy_partition(cands, cells):
    """Deterministic greedy exact-cover of the flat bits ``cells``: first
    uncovered cell, largest admissible candidate.  ``cands``: (rows, cols,
    color, def_mask, foot_mask).  Always succeeds because single-cell
    hulls are among the candidates."""
    covered = used = 0
    picked = []
    rest = cells
    while rest:
        cellbit = rest & -rest
        best = None
        for cand in cands:
            if not (cand[3] & cellbit):
                continue
            if cand[3] & covered or cand[4] & used:
                continue
            if best is None or cand[3].bit_count() > best[3].bit_count():
                best = cand
        covered |= best[3]
        used |= best[4]
        picked.append(best)
        rest &= ~covered
    return picked


def _partition_color_exact(cands_z, full, nr, nc, upper):
    """Minimum exact cover of one color's cells ``full`` by its rectangles.

    Iterative deepening from the rank bound; at each node the rank of the
    still-uncovered cell matrix must fit in the remaining budget, which
    forces nearly every placement to strictly reduce rank.  Raises CapError
    past the node cap so the caller can fall back to the integer program.
    """
    rank_cache = {}

    def rank_of(mask):
        got = rank_cache.get(mask)
        if got is None:
            got = _rank_q([[1 if mask >> (i * nc + j) & 1 else 0
                            for j in range(nc)] for i in range(nr)])
            rank_cache[mask] = got
        return got

    by_size = sorted(cands_z, key=lambda c: (-c[3].bit_count(), c[:2]))
    work = _Budget("partition", PARTITION_NODE_CAP)

    def dfs(remaining, budget, acc):
        if not remaining:
            return list(acc)
        if budget == 0:
            return None
        work.charge(1)
        if rank_of(remaining) > budget:
            return None
        cellbit = remaining & -remaining
        for cand in by_size:
            if cand[3] & cellbit and cand[3] & ~remaining == 0:
                acc.append(cand)
                got = dfs(remaining & ~cand[3], budget - 1, acc)
                acc.pop()
                if got is not None:
                    return got
        return None

    budget = rank_of(full)
    while budget <= upper:
        got = dfs(full, budget, [])
        if got is not None:
            return got
        budget += 1
    raise CapError("partition search failed below the greedy bound")


def milp(*args, **kwargs):
    """scipy.optimize.milp, imported on the first call so that only a
    promise disjoint cover pays for scipy.  Kept as a module-level name
    because perfbench/spans.py traces the binding regcc.commcc.milp."""
    from scipy.optimize import milp as scipy_milp

    return scipy_milp(*args, **kwargs)


def _partition_milp(cands, cell_bits, und_bits, lower, upper):
    """Exact minimum exact-cover of the defined cell bits by candidates,
    with at-most-once use of undefined cells; lower/upper are valid bounds
    supplied as constraints so optimality closes at the known bound."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint

    n_vars = len(cands)
    eq_rows, eq_cols = [], []
    ub_rows, ub_cols = [], []
    cell_pos = {bit: k for k, bit in enumerate(cell_bits)}
    und_pos = {bit: k for k, bit in enumerate(und_bits)}
    for v, cand in enumerate(cands):
        for bit in _mask_to_indices(cand[3]):
            eq_rows.append(cell_pos[bit])
            eq_cols.append(v)
        for bit in _mask_to_indices(cand[4] & ~cand[3]):
            if bit in und_pos:
                ub_rows.append(und_pos[bit])
                ub_cols.append(v)
    constraints = [LinearConstraint(
        sparse.csr_matrix((np.ones(len(eq_rows)), (eq_rows, eq_cols)),
                          shape=(len(cell_bits), n_vars)), 1, 1)]
    if ub_rows:
        constraints.append(LinearConstraint(
            sparse.csr_matrix((np.ones(len(ub_rows)), (ub_rows, ub_cols)),
                              shape=(len(und_bits), n_vars)), 0, 1))
    constraints.append(LinearConstraint(np.ones((1, n_vars)), lower, upper))
    res = milp(c=np.ones(n_vars), constraints=constraints,
               integrality=np.ones(n_vars), bounds=Bounds(0, 1))
    if res.status != 0:
        raise CcError("partition solve failed: %s" % res.message)
    return [cands[v] for v in range(n_vars) if res.x[v] > 0.5]


def min_disjoint_cover(f: CommFunction):
    """Exact minimum partition of the defined cells into monochromatic
    rectangles (pairwise disjoint as cell sets).  Returns (count, Cover).

    Total functions split per color (opposite-color rectangles cannot
    meet without undefined cells) and each color is bounded below by the
    exact rank of its 0/1 matrix over Q: a partition sums outer products
    to that matrix.  A deterministic greedy supplies the upper bound and
    an integer program settles any remaining gap."""
    if f.n_rows > DISJOINT_CAP or f.n_cols > DISJOINT_CAP:
        raise CapError("disjoint-cover search capped at %dx%d" % (DISJOINT_CAP, DISJOINT_CAP))
    row_groups, col_groups, masks = _merged(f)
    nr, nc = len(row_groups), len(col_groups)
    z_cells = [sum(m << (r * nc) for r, m in enumerate(masks[z])) for z in (0, 1)]
    defined = z_cells[0] | z_cells[1]
    undefined = ((1 << (nr * nc)) - 1) & ~defined
    cands = []
    for rows_mask, cols_mask, color in _closed_rectangles(masks, nc):
        foot = _cells(rows_mask, cols_mask, nc)
        cands.append((rows_mask, cols_mask, color, foot & defined, foot))

    picked = []
    if not undefined:
        for z in (0, 1):
            if not z_cells[z]:
                continue
            cands_z = [c for c in cands if c[2] == z]
            greedy = _greedy_partition(cands_z, z_cells[z])
            try:
                picked.extend(_partition_color_exact(cands_z, z_cells[z], nr, nc,
                                                     len(greedy)))
            except CapError:
                lower = _rank_q([[m >> c & 1 for c in range(nc)] for m in masks[z]])
                picked.extend(_partition_milp(
                    cands_z, _mask_to_indices(z_cells[z]), [], lower, len(greedy)))
    else:
        greedy = _greedy_partition(cands, defined)
        lower = max(1, sum(len(max_fooling_set(f, z)) for z in (0, 1) if f.count(z)))
        if len(greedy) == lower:
            picked = greedy
        else:
            picked = _partition_milp(
                cands, _mask_to_indices(defined), _mask_to_indices(undefined),
                lower, len(greedy))

    rects = tuple(_rectangle(row_groups, col_groups, rm, cm)
                  for rm, cm, _c, _d, _f in sorted(picked))
    return len(rects), Cover(None, rects)


def _closed_rectangles(masks, nc):
    """All monochromatic rectangles that are hulls of their defined cells,
    as sorted (row mask, col mask, color) triples; ``masks[z][r]`` holds
    the columns, out of ``nc``, with a defined z in row r.

    Every partition can be rewritten to use only such rectangles: shrinking
    a part to the hull of its defined cells keeps it monochromatic and
    keeps the parts disjoint.

    For each color z the row sets R are walked in increasing mask order,
    each taking from R minus its low row two column masks: its z-intent
    (columns with no defined 1-z cell in R) and its reach (columns with a
    defined cell in R).  R x C is the hull of its defined cells exactly
    when every column of C has a defined cell in R and every row of R has
    one in C; so C runs over the nonempty subsets of intent & reach and is
    kept when no row of R misses it.  For a total function every check
    passes and the list is every z-monochromatic rectangle.  Raises
    CapError before visiting more than CONCEPT_CAP (R, C) pairs.
    """
    nr = len(masks[0])
    row_def = [zeros | ones for zeros, ones in zip(*masks)]
    out = []
    budget = _Budget("partition-candidate", CONCEPT_CAP)
    for z in (0, 1):
        compat = [((1 << nc) - 1) & ~m for m in masks[1 - z]]
        intent = [(1 << nc) - 1] + [0] * ((1 << nr) - 1)
        reach = [0] * (1 << nr)
        for rows_mask in range(1, 1 << nr):
            low = rows_mask & -rows_mask
            i = low.bit_length() - 1
            intent[rows_mask] = intent[rows_mask ^ low] & compat[i]
            reach[rows_mask] = reach[rows_mask ^ low] | row_def[i]
            space = intent[rows_mask] & reach[rows_mask]
            if not space:
                continue
            budget.charge((1 << space.bit_count()) - 1)
            # rows defined on all of space pass for every C
            partial = [row_def[r] & space for r in _mask_to_indices(rows_mask)
                       if row_def[r] & space != space]
            cols_mask = space
            while cols_mask:
                if all(d & cols_mask for d in partial):
                    out.append((rows_mask, cols_mask, z))
                cols_mask = (cols_mask - 1) & space
    out.sort()
    return out


# ---------------------------------------------------------------------------
# exact deterministic complexity

@dataclass(frozen=True)
class ProtocolNode:
    """Protocol partitioning tree over (row set, column set) rectangles."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    color: int | None = None          # set on leaves
    split: str | None = None          # "rows" or "cols"
    children: tuple = ()

    def leaves(self):
        if not self.children:
            return [self]
        return [leaf for child in self.children for leaf in child.leaves()]


def exact_deterministic_cc(f: CommFunction):
    """Minimum worst-case bits of a deterministic protocol, with an optimal
    protocol tree.  Recursion: a rectangle costs 0 if monochromatic
    (undefined cells wildcard), else 1 plus the best worst-child over all
    nontrivial row or column bipartitions.  Matches the convention in which
    the answer bit is part of the transcript: EQ on n bits costs n+1.

    The tree follows one rule.  Splits are tried rows before columns; equal
    rows (columns) stay together, their groups sorted by content, and each
    split puts the first group and a subset of the others, counted up in
    binary, on one side.  A node takes the first split whose worst child is
    least; a leaf takes the least defined color.

    On a rectangle with no undefined cell a protocol tree has at least
    rank(1-cells) + rank(0-cells) leaves (ranks over Q), so the depth is at
    least lb = max(1, ceil(log2 of that sum)), and the search stops at the
    first split reaching lb: no later split can beat a proven minimum, so
    the rule above still picks it.  A rectangle with an undefined cell keeps
    lb = 1, since the rank of a wildcard matrix bounds nothing.  Raises
    CapError past WORK_CAP units: per r x c rectangle, r*c per canonical form
    on a cache miss and per split search, 2*r*c*min(r, c) per rank and the
    group count per split tried."""
    n_cols = f.n_cols
    base = tuple(tuple(-1 if ch == UNDEF else int(ch) for ch in row) for row in f.rows)
    # where[z][i]: the columns holding a z in row i
    where = [[sum(1 << j for j, v in enumerate(row) if v == z) for row in base]
             for z in (0, 1)]
    memo = {}  # canonical content -> depth
    by_rect = {}  # rows mask << n_cols | cols mask -> depth
    budget = _Budget("protocol-depth")

    def colors(row_idx, cols):
        return [z for z in (0, 1) if any(where[z][i] & cols for i in row_idx)]

    def canon(row_idx, col_idx):
        rows = tuple(sorted({tuple(base[i][j] for j in col_idx) for i in row_idx}))
        for _ in range(4):
            cols = tuple(sorted(set(zip(*rows))))
            rows2 = tuple(sorted(set(zip(*cols))))
            if rows2 == rows:
                break
            rows = rows2
        return rows

    def best_split(rows, cols):
        """(depth, split) of rows x cols over row and column masks; split is
        None at a leaf, else (side, (part_a, part_b)), the first split in
        the rule's order that reaches the depth."""
        row_idx, col_idx = _mask_to_indices(rows), _mask_to_indices(cols)
        r, c = len(row_idx), len(col_idx)
        budget.charge(r * c)
        if len(colors(row_idx, cols)) < 2:
            return 0, None
        lb = 1
        if not any(cols & ~(where[0][i] | where[1][i]) for i in row_idx):
            # no undefined cell: leaves >= rank(1-cells) + rank(0-cells)
            budget.charge(4 * r * c * min(r, c))
            leaves = sum(_rank_q([[base[i][j] == z for j in col_idx] for i in row_idx])
                         for z in (0, 1))
            lb = max(1, _log2ceil(leaves))
        best, split = 10 ** 9, None
        for side in ("rows", "cols"):
            groups = {}
            for x in (row_idx if side == "rows" else col_idx):
                key = tuple(base[x][j] for j in col_idx) if side == "rows" \
                    else tuple(base[i][x] for i in row_idx)
                groups[key] = groups.get(key, 0) | 1 << x
            masks = [groups[key] for key in sorted(groups)]
            count = len(masks)
            # part_a holds group 0; every proper complement appears once
            for pick in range((1 << (count - 1)) - 1):
                budget.charge(count)
                part_a, part_b = masks[0], 0
                for k in range(1, count):
                    if pick >> (k - 1) & 1:
                        part_a |= masks[k]
                    else:
                        part_b |= masks[k]
                if side == "rows":
                    parts = ((part_a, cols), (part_b, cols))
                else:
                    parts = ((rows, part_a), (rows, part_b))
                d1 = solve(*parts[0])
                if d1 + 1 >= best:
                    continue
                d = 1 + max(d1, solve(*parts[1]))
                if d < best:
                    best, split = d, (side, parts)
                    if best <= lb:
                        return best, split
        return best, split

    def solve(rows, cols):
        rect = rows << n_cols | cols
        d = by_rect.get(rect)
        if d is None:
            budget.charge(rows.bit_count() * cols.bit_count())
            key = canon(_mask_to_indices(rows), _mask_to_indices(cols))
            d = memo.get(key)
            if d is None:
                d = memo[key] = best_split(rows, cols)[0]
            by_rect[rect] = d
        return d

    def walk(rows, cols):
        row_idx, col_idx = _mask_to_indices(rows), _mask_to_indices(cols)
        _, split = best_split(rows, cols)
        if split is None:
            return ProtocolNode(row_idx, col_idx,
                                color=min(colors(row_idx, cols)))
        side, parts = split
        return ProtocolNode(row_idx, col_idx, split=side,
                            children=tuple(walk(*part) for part in parts))

    full_rows, full_cols = (1 << f.n_rows) - 1, (1 << n_cols) - 1
    return solve(full_rows, full_cols), walk(full_rows, full_cols)


# ---------------------------------------------------------------------------
# fooling sets

def max_fooling_set(f: CommFunction, z: int):
    """Maximum fooling set for color z, exact via maximum clique on the
    pairwise-separation graph.

    Two z-cells may coexist only if some cross cell carries the defined
    opposite value; an undefined cross cell is a wildcard, so it does not
    separate (the pair could still share a z-monochromatic rectangle, and
    the bound fooling <= C^z would break).
    """
    if f.n_rows > FOOLING_CAP or f.n_cols > FOOLING_CAP:
        raise CapError("fooling-set search capped at %dx%d" % (FOOLING_CAP, FOOLING_CAP))
    row_groups, col_groups, masks = _merged(f)
    cells = [(r, c) for r, m in enumerate(masks[z]) for c in _mask_to_indices(m)]
    n = len(cells)
    if n == 0:
        return []
    other = masks[1 - z]
    adj = [0] * n
    for a in range(n):
        ra, ca = cells[a]
        for b in range(a + 1, n):
            rb, cb = cells[b]
            if other[ra] >> cb & 1 or other[rb] >> ca & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    best_mask = _max_clique(adj, n)
    return sorted((row_groups[cells[k][0]][0], col_groups[cells[k][1]][0])
                  for k in _mask_to_indices(best_mask))


def _max_clique(adj, n):
    """Exact maximum clique with greedy-coloring bound.  Raises CapError
    past WORK_CAP units: n per node, the vertices its coloring scans."""
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    best = [0, 0]  # size, mask
    budget = _Budget("fooling-set clique")

    def color_bound(p_mask):
        colors = []
        order_p = [v for v in order if p_mask >> v & 1]
        bounds = {}
        for v in order_p:
            for ci, cmask in enumerate(colors):
                if not (adj[v] & cmask):
                    colors[ci] |= 1 << v
                    bounds[v] = ci + 1
                    break
            else:
                colors.append(1 << v)
                bounds[v] = len(colors)
        return order_p, bounds

    def expand(r_mask, r_size, p_mask):
        budget.charge(n)
        if not p_mask:
            if r_size > best[0]:
                best[0], best[1] = r_size, r_mask
            return
        order_p, bounds = color_bound(p_mask)
        for v in sorted(order_p, key=lambda u: -bounds[u]):
            if r_size + bounds[v] <= best[0]:
                return
            expand(r_mask | (1 << v), r_size + 1, p_mask & adj[v])
            p_mask &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return best[1]


# ---------------------------------------------------------------------------
# rectangle measures

def max_rectangle_measure(f: CommFunction, z: int, measure: RectangleMeasure):
    """Maximum measure mass of any z-monochromatic rectangle; exact since
    weights are non-negative and the maximum is attained at a maximal
    rectangle."""
    if f.n_rows > MEASURE_CAP or f.n_cols > MEASURE_CAP:
        raise CapError("measure search capped at %dx%d" % (MEASURE_CAP, MEASURE_CAP))
    row_groups, col_groups, masks = _merged(f)
    weights = measure.as_dict()
    best = 0
    for ext, inte in _concepts(masks[1 - z], len(col_groups)):
        rect = _rectangle(row_groups, col_groups, ext, inte)
        mass = sum(weights.get(cell, 0) for cell in rect.cells())
        if mass > best:
            best = mass
    return best


# ---------------------------------------------------------------------------
# the cover-based protocol

def validate_disjoint_cover(f: CommFunction, cover: Cover):
    used = {}
    for rect in cover.rectangles:
        color = monochromatic_color(f, rect)
        if color is None:
            raise CcError("invalid cover: rectangle is not monochromatic")
        for cell in rect.cells():
            if cell in used:
                raise CcError("invalid cover: overlapping rectangles at %r" % (cell,))
            used[cell] = True
    for i, j, _v in f.defined_cells():
        if (i, j) not in used:
            raise CcError("invalid cover: defined cell (%d,%d) uncovered" % (i, j))


def simulate_cover_protocol(f: CommFunction, cover: Cover, x: int, y: int):
    """Run the round protocol driven by a monochromatic disjoint cover.

    Each round, Alice looks for a 1-rectangle through her row that shares
    rows with at most half of the live 0-rectangles; failing that Bob tries
    the column version; if both fail the answer is 0.  An empty live set
    answers 1.  Returns (answer, bits used)."""
    validate_disjoint_cover(f, cover)
    rects = list(cover.rectangles)
    colored = [(r, monochromatic_color(f, r, vacuous=0)) for r in rects]
    zero_rects = [r for r, color in colored if color == 0]
    one_rects = [r for r, color in colored if color == 1]
    name_bits = _log2ceil(len(rects))
    live = list(zero_rects)
    bits = 0
    while True:
        if not live:
            bits += 1
            return 1, bits
        half = len(live) / 2

        found = None
        for r1 in one_rects:
            if x not in r1.rows:
                continue
            hits = [r0 for r0 in live if set(r0.rows) & set(r1.rows)]
            if len(hits) <= half:
                found = (r1, hits)
                break
        bits += 1  # Alice's found/failed flag
        if found:
            bits += name_bits
            live = found[1]
            continue

        found = None
        for r1 in one_rects:
            if y not in r1.cols:
                continue
            hits = [r0 for r0 in live if set(r0.cols) & set(r1.cols)]
            if len(hits) <= half:
                found = (r1, hits)
                break
        bits += 1  # Bob's flag doubles as the 0-answer
        if found:
            bits += name_bits
            live = found[1]
            continue
        return 0, bits


# ---------------------------------------------------------------------------
# reports

def serialize_function(f: CommFunction) -> str:
    lines = ["name: %s" % f.name]
    for key, value in f.params:
        lines.append("%s: %s" % (key, value))
    lines.append("rows: " + ",".join(f.row_labels))
    lines.append("cols: " + ",".join(f.col_labels))
    lines.append("matrix:")
    lines.extend(f.rows)
    return "\n".join(lines) + "\n"


def format_indices(indices) -> str:
    """Sorted indices compressed into ranges: 0,1,2,5 -> 0-2,5."""
    indices = sorted(indices)
    parts = []
    k = 0
    while k < len(indices):
        j = k
        while j + 1 < len(indices) and indices[j + 1] == indices[j] + 1:
            j += 1
        if j > k:
            parts.append("%d-%d" % (indices[k], indices[j]))
        else:
            parts.append(str(indices[k]))
        k = j + 1
    return ",".join(parts)


def serialize_cover(f: CommFunction, count: int, cover: Cover) -> str:
    lines = ["count: %d" % count]
    if cover.color is not None:
        lines.append("color: %d" % cover.color)
    for rect in cover.rectangles:
        color = monochromatic_color(f, rect, vacuous=cover.color)
        lines.append("rect: rows=%s cols=%s color=%s"
                     % (format_indices(rect.rows), format_indices(rect.cols), color))
    return "\n".join(lines) + "\n"


def serialize_tree(node: ProtocolNode, depth: int = 0) -> str:
    pad = "  " * depth
    if not node.children:
        return "%sleaf: rows=%s cols=%s color=%s\n" % (
            pad, format_indices(node.rows), format_indices(node.cols), node.color)
    out = "%ssplit %s: rows=%s cols=%s\n" % (
        pad, node.split, format_indices(node.rows), format_indices(node.cols))
    for child in node.children:
        out += serialize_tree(child, depth + 1)
    return out
