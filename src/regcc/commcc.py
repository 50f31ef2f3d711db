"""Exact communication-complexity computations on small explicit functions.

Matrices are stored row-wise as strings over ``0``, ``1`` and ``*`` where
``*`` marks promise-excluded (undefined) cells.  Undefined cells act as
wildcards inside rectangles: a z-monochromatic rectangle must avoid defined
(1-z) cells only.

Every matrix built here is the word problem of an automaton, and one prefix
fold, ``_fold``, builds each in time linear in its cells.  A built-in reads
bit pairs, most significant first, with at most four states (min(q,
``MATERIALIZE_CAP`` + 1) for IP_q); a language or monoid problem one letter.

Exact solvers: minimum rectangle cover (branch and bound over maximal
rectangles), minimum disjoint cover (on total functions the leaves of a
rank-tight protocol tree, else one level search deepening from the rank
bound; on promise ones the same search from the ranks of the undefined
cells' 0/1 completions), deterministic protocol depth, maximum fooling set
(maximum clique), maximum rectangle measure.

The protocol depth is one memoized search over row and column
bipartitions, whose first optimal split at each node gives the protocol
tree.  Each rectangle stops at the first split reaching a lower bound:
the rank bound when it has no undefined cell, else a greedy fooling set of
each color, whose cells need a leaf each; it is the one greedy fooling set
that the partition search takes too.  A split stops as soon as a
child shows it cannot beat the best split so far, because each child is
solved only below that depth (a cutoff, as in alpha-beta search).  All of
it, ranks and fooling sets included, is charged to one work meter.

The cover and the measure search the maximal z-monochromatic rectangles.
The column side of each is the intersection of its rows' allowed-column
masks (an intent of formal concept analysis), so ``_concepts`` lists them
as the intersection closure of those masks.

The cover search enters a node with uncovered cells U only while its picks
plus ceil(|U| / max_c |c & U|), over the candidates c, can beat the
incumbent.  No cover of U takes fewer rectangles, so the bound prunes only
subtrees with no strictly better leaf: the printed cover stays the first
optimal leaf in depth-first order, the one a weaker bound finds.

Every solver reads the matrix through ``_merged``: equal rows and equal
columns become one merged row or column, ``masks[z][r]`` holds the merged
columns with a defined z in merged row r, and a merged cell (r, c) is the
flat bit ``r * nc + c``.  Each optimum is the same on the merged matrix,
since a cover, partition, fooling set or protocol of the original
restricts to the group representatives and one of the merged matrix
expands over the groups; ``_expand`` maps a merged row or column mask back
to the original indices.  The size caps of the cover and the disjoint
cover count merged rows and columns, since their searches allocate per
merged row; the measure's counts original ones, since it sums weights
over original cells.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .automata import EPSILON, CapError, CcError, Dfa

UNDEF = "*"

MATERIALIZE_CAP = 12          # 2^n x 2^n builtin matrices
PROBLEM_CELL_CAP = 4096       # rows of language/monoid problems
COVER_CAP = 64                # per side, exact cover guarantee
DISJOINT_CAP = 16             # per side, partition search
MEASURE_CAP = 32
# maximal rectangles: intersections kept; partition candidates: (R, C)
# pairs visited
CONCEPT_CAP = 300_000
# work of one cover, clique, depth or reduction-verify call, or of one color's
# partition search, in the units its docstring names; at n <= 3 the built-ins
# spend at most 2 098 442 (PIP2 ZERO_SIDED color 1's partition meter, 2 097 152
# of it the ranks of 2^15 completions), and a depth search at most 404 139
# (PIP2 ZERO_SIDED)
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

CC_FUNCTION_NAMES = ("EQ", "NEQ", "DISJ", "LT", "PDISJ", "IP", "PIP2")
PIP2_VARIANTS = ("TWO_SIDED", "ZERO_SIDED")


def builtin_function(name: str, n: int, q: int | None = None,
                     variant: str = "TWO_SIDED") -> CommFunction:
    """Materialize a named two-party function on n-bit inputs.

    Each function is a regular language over bit pairs: an automaton reads
    (x_k, y_k) from the most significant bit and its final state gives the
    cell.  EQ and NEQ track whether a pair has differed, DISJ whether a
    common one has appeared, LT whether x or y first took the larger bit,
    PDISJ the count of common ones up to 2 (two or more is undefined), and
    IP_q that count modulo q.  No input has more than n <=
    ``MATERIALIZE_CAP`` common ones, so IP_q needs at most
    ``MATERIALIZE_CAP`` + 1 states whatever q is.

    PIP2 (promise inner product mod 2) tracks the parity of common ones
    and whether the promise still holds.  Its two variants differ in the
    orientation of the per-position prefix conditions and in which outputs
    carry the promise.  TWO_SIDED promises every input, requiring at each
    mixed position (0,1) an even and (1,0) an odd count of earlier common
    ones; it is the variant under which the block reduction to the
    five-state language verifies exhaustively.  ZERO_SIDED keeps the
    opposite orientation and restricts only the 0-inputs; the same block
    reduction demonstrably fails against it.
    """
    if not (1 <= n <= MATERIALIZE_CAP):
        raise CapError("n=%d outside materialization range 1..%d" % (n, MATERIALIZE_CAP))
    params = [("n", n)]
    if name == "IP":
        if q is None or q < 2:
            raise CcError("IP requires q >= 2")
        params.append(("q", q))
    elif name == "PIP2":
        if variant not in PIP2_VARIANTS:
            raise CcError("unknown PIP2 variant %r" % variant)
        params.append(("variant", variant))
    elif name not in CC_FUNCTION_NAMES:
        raise CcError("unknown built-in function %r" % name)
    states, maps, verdict = _automaton(name, q if name == "IP" else None,
                                       variant if name == "PIP2" else None)
    *_, read = _fold(0, states, itertools.repeat(maps, n))
    labels = tuple(format(x, "0%db" % n) for x in range(1 << n))
    return CommFunction("IP_%d" % q if name == "IP" else name, labels, labels,
                        read(verdict), tuple(params))


@functools.cache
def _automaton(name, q, variant):
    """A built-in's bit-pair automaton: (states, maps, verdict), where
    ``maps[a][b][s]`` is the successor of state s on the pair (a, b) and
    ``verdict`` holds each state's cell character.  State 0 starts."""
    if name in ("EQ", "NEQ"):     # 1: the pairs have differed
        states, step = 2, lambda s, a, b: s | (a != b)
        verdict = "10" if name == "EQ" else "01"
    elif name == "DISJ":          # 1: a common one
        states, step, verdict = 2, lambda s, a, b: s | (a & b), "10"
    elif name == "LT":            # 0: equal so far, 1: x < y, 2: x > y
        states, step, verdict = 3, lambda s, a, b: s or (b - a) % 3, "110"
    elif name == "PDISJ":         # common ones, up to 2
        states, step, verdict = 3, lambda s, a, b: min(s + (a & b), 2), "10*"
    elif name == "IP":
        # common ones mod q; no input has more than MATERIALIZE_CAP of them,
        # so the count may stop where none reaches
        states = min(q, MATERIALIZE_CAP + 1)
        step = lambda s, a, b: min((s + (a & b)) % q, states - 1)
        verdict = "1" + "0" * (states - 1)
    else:
        # bit 0: parity of common ones; bit 1: the promise is broken, at a
        # mixed position whose earlier parity the variant forbids
        states, mixed = 4, int(variant == "TWO_SIDED")

        def step(s, a, b):
            broken = a != b and (s & 1 == 0) == (a == mixed)
            return (s & 1 ^ a & b) | s & 2 | broken << 1
        verdict = "10**" if variant == "TWO_SIDED" else "101*"
    maps = tuple(tuple(tuple(step(s, a, b) for s in range(states)) for b in (0, 1))
                 for a in (0, 1))
    return states, maps, verdict


def _fold(start, states, levels):
    """Word-problem matrices of an automaton, from the 1 x 1 matrix of
    ``start``: a level is a table ``maps[a][b]`` of state maps, and the state
    at row i, column j moves through ``maps[a][b]`` into row i * ka + a,
    column j * kb + b (``itertools.product`` order).  Yields, before the
    first level and after each, a reader: ``final`` (one character per
    state) -> row strings.  The cells are flat, each level a few moves of
    all of them: of nr stored rows, row k moves to rows a * nr + k, and
    ``order[i]`` stores row i.  Up to 256 states they are bytes moved by
    ``translate``, else a list of ints."""
    small = states <= 256

    def read(cells, order, final):
        width = len(cells) // len(order)
        rows = (cells[k * width:(k + 1) * width] for k in order)
        if small:
            final = final.encode().ljust(256)
            return tuple(row.translate(final).decode() for row in rows)
        return tuple("".join(map(final.__getitem__, row)) for row in rows)

    cells, order, last = bytes((start,)) if small else [start], [0], None
    yield functools.partial(read, cells, order)
    for maps in levels:
        if small:
            if maps is not last:        # a repeated level keeps its tables
                last, byte_maps = maps, [[bytes(m).ljust(256) for m in ms] for ms in maps]
            kb, size, old = len(maps[0]), len(cells) * len(maps[0]), cells
            cells = bytearray(size * len(maps))
            for a, tables in enumerate(byte_maps):
                for b, table in enumerate(tables):
                    cells[a * size + b:(a + 1) * size:kb] = old.translate(table)
        else:
            cells = [m[s] for ms in maps for s in cells for m in ms]
        order = [a * len(order) + k for k in order for a in range(len(maps))]
        yield functools.partial(read, cells, order)


# ---------------------------------------------------------------------------
# language and monoid problems

def language_problem(d: Dfa, n: int) -> CommFunction:
    """Alternating-partition word problem: Alice holds the odd letters,
    Bob the even ones, each letter from the alphabet plus the empty letter."""
    if n < 1:
        raise CcError("language problem needs n >= 1")
    f = language_problem_partition(d, 2 * n, range(0, 2 * n, 2))
    return replace(f, name="language:%s" % ",".join(d.alphabet), params=(("n", n),))


def language_problem_partition(d: Dfa, total: int, alice_positions) -> CommFunction:
    """Word problem under an arbitrary partition of ``total`` positions, one
    fold level each; cross-check helper for the worst-case-partition convention."""
    alice_positions = tuple(sorted(alice_positions))
    if any(not 0 <= p < total for p in alice_positions):
        raise CcError("partition positions out of range")
    if len(set(alice_positions)) != len(alice_positions):
        raise CcError("partition positions repeat")
    n_alice = len(alice_positions)
    letters = (EPSILON,) + tuple(d.alphabet)
    side = max(n_alice, total - n_alice)
    if len(letters) ** side > PROBLEM_CELL_CAP:
        raise CapError("language problem size %d^%d exceeds cap" % (len(letters), side))
    moves = (tuple(range(d.state_count)),) + d.moves
    alice, bob = tuple((m,) for m in moves), (moves,)
    levels = [alice if p in alice_positions else bob for p in range(total)]
    *_, read = _fold(d.initial, d.state_count, levels)
    rows = read("".join("01"[s in d.accepting] for s in range(d.state_count)))
    a_labels, b_labels = (tuple("".join(t) or EPSILON
                                for t in itertools.product(letters, repeat=k))
                          for k in (n_alice, total - n_alice))
    return CommFunction("language-partition", a_labels, b_labels, rows, (("total", total),))


def monoid_problem(om, ideal, n: int) -> CommFunction:
    """Alternating-partition evaluation problem for (M, I), letter e acting as x -> x e."""
    m = om.monoid if hasattr(om, "monoid") else om
    if n < 1:
        raise CcError("monoid problem needs n >= 1")
    if m.size ** n > PROBLEM_CELL_CAP:
        raise CapError("monoid problem size %d^%d exceeds cap" % (m.size, n))
    members = ideal.members if hasattr(ideal, "members") else frozenset(ideal)
    acts = tuple(zip(*m.table))
    *_, read = _fold(m.identity, m.size, (tuple((e,) for e in acts), (acts,)) * n)
    rows = read("".join("01"[x in members] for x in range(m.size)))
    labels = tuple(".".join(m.name_of(x) for x in t)
                   for t in itertools.product(range(m.size), repeat=n))
    return CommFunction("monoid", labels, labels, rows, (("n", n),))


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


# per color z, the cell characters as the binary digits of "cell == z"
_DIGITS = (str.maketrans("01*", "100"), str.maketrans("01*", "010"))


def _merged(f: CommFunction):
    """The matrix with equal rows and equal columns merged, each group in
    order of first occurrence: (row groups, column groups, masks), where
    ``masks[z][r]`` holds the merged columns with a defined z in merged
    row r.  A merged cell (r, c) is flat bit ``r * nc + c``."""
    rows, cols = {}, {}
    for i, row in enumerate(f.rows):
        rows.setdefault(row, []).append(i)
    # columns are equal exactly when they are equal on the distinct rows
    for j, col in enumerate(zip(*rows)):
        cols.setdefault(col, []).append(j)
    # each distinct row on the representative columns, last first, so that
    # merged column c is bit c of the number the digits spell
    pick = operator.itemgetter(*[group[0] for group in reversed(cols.values())])
    lines = ["".join(pick(row)) for row in rows]
    masks = [[int(line.translate(digits), 2) for line in lines] for digits in _DIGITS]
    return list(rows.values()), list(cols.values()), masks


def _flat(row_masks, nc):
    """The flat cells of per-row column masks, bit r * nc + c for column c
    of row r: one binary numeral of the rows, last row first, so linear
    in the cells (a sum of shifted masks is quadratic in the rows)."""
    return int("".join(format(mask, "0%db" % nc) for mask in reversed(row_masks)), 2)


def _cells(rows_mask, cols_mask, nc):
    """Flat cell bits of the merged rectangle rows_mask x cols_mask."""
    out = 0
    for r in _mask_to_indices(rows_mask):
        out |= cols_mask << (r * nc)
    return out


def _expand(groups, mask):
    """The sorted original indices of the merged rows (columns) in ``mask``."""
    return tuple(sorted(i for r in _mask_to_indices(mask) for i in groups[r]))


def _rectangle(row_groups, col_groups, rows_mask, cols_mask) -> Rectangle:
    """The rectangle of the original matrix that a merged mask pair spans."""
    return Rectangle(_expand(row_groups, rows_mask), _expand(col_groups, cols_mask))


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
    a greedy incumbent, stopped once the incumbent meets a certified floor
    (``_cover_floor``)."""
    if z not in (0, 1):
        raise CcError("color must be 0 or 1")
    if f.count(z) == 0:
        raise CcError("no %d-cells to cover" % z)
    row_groups, col_groups, masks = _merged(f)
    nr, nc = len(row_groups), len(col_groups)
    if nr > COVER_CAP or nc > COVER_CAP:
        raise CapError("cover search capped at %dx%d distinct rows/columns"
                       % (COVER_CAP, COVER_CAP))
    universe = _flat(masks[z], nc)

    candidates = []
    for ext, inte in _concepts(masks[1 - z], nc):
        cover_mask = _cells(ext, inte, nc) & universe
        if cover_mask:
            candidates.append((ext, inte, cover_mask))

    candidates.sort(key=lambda c: -c[2].bit_count())
    budget = _Budget("set-cover")
    # on a total matrix every maximal rectangle covers all of its cells, so
    # no candidate's coverage contains another's
    if any(UNDEF in row for row in f.rows):
        candidates = _undominated(candidates, budget)

    def floor(cap):
        return _cover_floor(universe, _flat(masks[1 - z], nc), nr, nc, cap)

    count, picked = _set_cover_exact(universe, candidates, budget, floor)
    rects = tuple(_rectangle(row_groups, col_groups, ext, inte)
                  for ext, inte, _ in picked)
    return count, Cover(z, rects)


def _undominated(candidates, budget):
    """The candidates whose coverage no earlier (larger-or-equal) kept
    candidate's contains; candidates come sorted by falling coverage.

    A coverage containing c's contains c's lowest cell, so c is compared
    only with the kept coverages holding that cell, indexed by cell.  The
    ``budget`` is charged one unit per comparison, before the scan."""
    kept = []
    holding = {}  # cell bit -> kept coverages holding that cell
    for cand in candidates:
        mask = cand[2]
        others = holding.get(mask & -mask, ())
        budget.charge(len(others))
        if any(mask & ~other == 0 for other in others):
            continue
        kept.append(cand)
        for idx in _mask_to_indices(mask):
            holding.setdefault(1 << idx, []).append(mask)
    return kept


class _FloorReached(Exception):
    """Ends a branch and bound whose incumbent has met its lower bound."""


def _crown_floor(universe, forbid, nr, nc):
    """The least k with C(k, floor(k/2)) >= m, for a greedy crown of m
    cells of ``forbid`` whose crossing cells all lie in ``universe``.

    Give each crown cell (r_a, c_a) the rectangles holding row r_a (A_a)
    and those holding column c_a (B_a).  No rectangle avoiding ``forbid``
    holds (r_a, c_a), so A_a and B_a are disjoint; one covering
    (r_a, c_b) lies in both A_a and B_b.  Bollobas's set-pair theorem
    then bounds m by C(k, floor(k/2)) for a cover by k rectangles.  Each
    step takes the lowest cell (r, c) left and keeps the cells (r', c')
    with (r', c) and (r, c') in ``universe``: column c of ``universe``
    spread along the rows times its row r repeated down them."""
    row = (1 << nc) - 1
    rep = ((1 << (nr * nc)) - 1) // row       # bit 0 of every row
    left, m = forbid, 0
    while left:
        r, c = divmod((left & -left).bit_length() - 1, nc)
        m += 1
        left &= (universe >> c & rep) * (universe >> (r * nc) & row)
    k = 0
    while math.comb(k, k // 2) < m:
        k += 1
    return k


def _cover_floor(universe, forbid, nr, nc, cap):
    """A lower bound on the rectangles avoiding ``forbid`` that cover
    ``universe``: the larger of the crown bound and the size of a greedy
    fooling set, whose search stops past ``cap`` cells."""
    return max(_crown_floor(universe, forbid, nr, nc),
               _greedy_blocked_fooling(universe, forbid, nr, nc, cap).bit_count())


def _set_cover_exact(universe, candidates, budget, floor):
    """Exact minimum set cover by branch and bound; candidates are
    (ext, inte, cover_mask) triples, deterministic order.

    A child with uncovered cells U is entered only while its picks plus
    need(U) = ceil(|U| / max_c |c & U|) can beat the incumbent.  The
    parent's maximum bounds the child's from above, so the free check
    with it runs first and the exact one second.  When the root's need
    is below the greedy incumbent, ``floor(incumbent)`` gives a second
    lower bound, and the search stops once the incumbent meets the larger
    one: the subtrees it skips hold no strictly better cover, so the
    cover returned is the same.  Charges ``budget``, which raises CapError
    past its cap: one unit per child checked, one per candidate per
    coverage evaluation."""
    # the candidates' masks as rows of little-endian uint64 words
    n_bytes = 8 * ((universe.bit_length() + 63) // 64)
    data = b"".join(c[2].to_bytes(n_bytes, "little") for c in candidates)
    table = np.frombuffer(data, dtype="<u8").reshape(len(candidates), n_bytes // 8)

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
                    if best_count == low:
                        raise _FloorReached
            elif picked + -(-left // most) < best_count:
                child_most = coverage(rest)
                if picked + -(-left // child_most) < best_count:
                    sel.append(c)
                    dfs(after, sel, child_most)
                    sel.pop()

    most = max(c[2].bit_count() for c in candidates)
    low = -(-universe.bit_count() // most)
    if low < best_count:
        low = max(low, floor(best_count))
        if low < best_count:
            try:
                dfs(0, [], most)
            except _FloorReached:
                pass
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


# primes above every minor of a 0/1 matrix with at most k rows: Hadamard's
# bound gives |det| <= (k + 1)^((k + 1) / 2) / 2^k, under 40 400 at k = 14 and
# under 440 000 at k = DISJOINT_CAP = 16, so a rank modulo the first prime (for
# k <= 14) or the second is the rank over Q.  Below the first, a product of two
# residues fits in int32, which eliminated batches of 4 096 matrices from 7x8 to
# 12x12 1.4-1.9x faster than int64.
_RANK_PRIME_32 = 46_337
_RANK_PRIME_64 = 1_000_003
# matrices per batch of _completion_ranks
_RANK_BATCH = 4096


def _batch_ranks(mats):
    """Ranks over Q of a (batch, rows, cols) stack of 0/1 matrices, by
    fraction-free elimination modulo a prime above every minor: each row
    takes the pivot times itself minus its entry times the pivot row.
    That keeps the rank of the other rows and zeroes the pivot row, so a
    column's pivot is its first nonzero entry."""
    if min(mats.shape[1:]) <= 14:
        prime, mats = _RANK_PRIME_32, mats.astype(np.int32)
    else:
        prime, mats = _RANK_PRIME_64, mats.astype(np.int64)
    ranks = np.zeros(len(mats), dtype=np.int64)
    each = np.arange(len(mats))
    for j in range(mats.shape[2]):
        col = mats[:, :, j]
        pivot = (col != 0).argmax(axis=1)
        value = col[each, pivot]
        ranks += value != 0
        # a matrix with no pivot here has a zero column and stays as it is
        value[value == 0] = 1
        mats = (value[:, None, None] * mats
                - col[:, :, None] * mats[each, pivot][:, None, :]) % prime
    return ranks


def _completion_ranks(cells, extra, nr, nc):
    """The rank over Q of the cell set ``cells`` plus each subset of the
    flat bits ``extra`` (a list), indexed by the subset's bits in the order
    of ``extra``."""
    base = np.array([cells >> k & 1 for k in range(nr * nc)], dtype=np.int8)
    shifts = np.arange(len(extra))
    out = np.empty(1 << len(extra), dtype=np.int64)
    for start in range(0, len(out), _RANK_BATCH):
        subsets = np.arange(start, min(len(out), start + _RANK_BATCH))
        mats = np.tile(base, (len(subsets), 1))
        mats[:, extra] = subsets[:, None] >> shifts & 1
        out[start:start + len(subsets)] = _batch_ranks(mats.reshape(-1, nr, nc))
    return out


def _greedy_blocked_fooling(left, forbid, nr, nc, cap):
    """A greedy fooling set of the cells ``left`` of an nr x nc matrix, as
    flat bits: any two of them have a crossing cell in ``forbid``, so no
    rectangle avoiding ``forbid`` holds both.  Each step takes the lowest
    cell (r, c) and keeps the cells (r', c') with (r, c') or (r', c) in
    ``forbid``: row r of ``forbid`` repeated down the rows, or its column c
    spread along them.  Stops once the set holds more than ``cap`` cells.

    Every search that bounds by a fooling set calls it: the partition
    search (``_Partitions``) on the cells a color has left against the
    other color's and the blocked ones, the depth search
    (``exact_deterministic_cc``) on a rectangle's z-cells against the
    whole matrix's 1-z cells, whose crossing cells with two cells of the
    rectangle lie in the rectangle, and the cover's floor
    (``_cover_floor``) on the z-cells against the 1-z cells."""
    row = (1 << nc) - 1
    rep = ((1 << (nr * nc)) - 1) // row       # bit 0 of every row
    found = size = 0
    while left and size <= cap:
        low = left & -left
        r, c = divmod(low.bit_length() - 1, nc)
        found |= low
        size += 1
        left = (left ^ low) & ((forbid >> (r * nc) & row) * rep | (forbid >> c & rep) * row)
    return found


class _Partitions:
    """Minimum partitions of the defined cells, from completion ranks.

    In a partition, the z-parts cover the z-cells plus a set A_z of
    undefined cells, A_0 and A_1 disjoint.  Their 0/1 matrices sum to that
    completion's, so they number at least its rank over Q, and at least
    the color's fooling number ``fooling[z]``.  A color whose candidates
    reach u undefined cells lists this bound for all 2^u completions when
    2^u nr nc <= WORK_CAP / 2; a color reaching more is bounded by its
    fooling number alone.  ``bound`` is the least sum over disjoint
    completions, from one subset-min transform over color 1's.  A total
    matrix has the empty completion alone.

    ``level(k)`` tries each split p_0 + p_1 = k.  A listed color runs a
    lowest-cell exact-cover DFS on each fixed completion whose bound fits,
    pruned by the rank of the cells left, and memoizes each completion's
    first partition.  A color not listed runs the DFS over its defined
    cells with its undefined cells optional, pruned by a count bound and
    by a greedy fooling set of the cells left against the cells no part
    may take.
    Color 1 must fit in the undefined cells that color 0's parts leave
    free.  The lowest cell left is covered by a part whose lowest cell it
    is, so ``by_low[z]`` (over all cells, for fixed completions) and
    ``by_def[z]`` (over defined cells, for optional ones) list the
    candidates by lowest cell, largest first.

    Color z charges its own meter ``work[z]``, which raises CapError past
    WORK_CAP: nr nc per completion rank listed and per cell set whose rank
    the DFS looks up, one unit per candidate tried and per fooling cell
    taken, and for color 1 one per 64 completions scanned.  On a total
    matrix each color thus spends what a separate rank-bounded deepening
    of that color would.
    """

    def __init__(self, cands, z_cells, undefined, fooling, nr, nc):
        self.z_cells, self.undefined, self.nr, self.nc = z_cells, undefined, nr, nc
        self.ranks, self.memo, self.loose = {}, {}, {}
        self.work, self.by_low, self.by_def, self.most, self.extra, self.bounds = (
            [], [], [], [], [], [])
        for z in (0, 1):
            by_low, by_def, reach = {}, {}, 0
            for cand in sorted((c for c in cands if c[2] == z),
                               key=lambda c: (-c[4].bit_count(), c[:2])):
                by_low.setdefault(cand[4] & -cand[4], []).append(cand)
                by_def.setdefault(cand[3] & -cand[3], []).append(cand)
                reach |= cand[4]
            extra = list(_mask_to_indices(reach & undefined))
            if (1 << len(extra)) * nr * nc <= WORK_CAP // 2:
                self.work.append(_Budget("partition"))
                self.work[z].charge((1 << len(extra)) * nr * nc)
                ranks = _completion_ranks(z_cells[z], extra, nr, nc)
                self.ranks[z_cells[z]] = [int(ranks[0]), True]
                bounds = np.maximum(ranks, fooling[z])
            else:
                self.work.append(_Budget("optional partition"))
                extra, bounds = None, np.array([fooling[z]])
            self.by_low.append(by_low)
            self.by_def.append(by_def)
            self.most.append(max((c[3].bit_count() for group in by_def.values()
                                  for c in group), default=1))
            self.extra.append(extra)
            self.bounds.append(bounds)
        # least[s]: the least bound of color 1 over the subsets of s
        least = self.bounds[1].copy()
        for i in range(len(self.extra[1] or ())):
            view = least.reshape(-1, 2, 1 << i)
            np.minimum(view[:, 1], view[:, 0], out=view[:, 1])
        self.least, self.full1 = least, len(least) - 1
        self.subsets1 = np.arange(len(least))
        # left1[s]: color 1's listed cells that color 0's completion s leaves
        subsets0 = np.arange(len(self.bounds[0]))
        self.left1 = np.full(len(subsets0), self.full1)
        for i, cell in enumerate(self.extra[0] or ()):
            self.left1 ^= (subsets0 >> i & 1) * self._index1(1 << cell)
        self.bound = int((self.bounds[0] + least[self.left1]).min())

    def _index1(self, mask):
        """The subset of color 1's listed cells in ``mask``, as an index."""
        return sum(1 << i for i, cell in enumerate(self.extra[1] or ()) if mask >> cell & 1)

    def _rank_above(self, z, mask, budget):
        """Whether the cells ``mask`` of color z have rank over Q above
        ``budget``.  A mask's first look-up takes its rank over GF(2), a
        lower bound from XORs of row masks that settles most pruned nodes;
        the exact rank follows only when that one fits.  Both are cached.
        _rank_q, not _batch_ranks, gives the exact rank: on one random 0/1
        matrix numpy's per-step overhead made _batch_ranks 5.6x slower at
        4x4, 2.6x at 8x8, 1.5x at 12x12 and no faster at 16x16 (CPython
        3.11, numpy 2.4, x86-64)."""
        got = self.ranks.get(mask)
        if got is None:
            nr, nc = self.nr, self.nc
            self.work[z].charge(nr * nc)
            row, pivots = (1 << nc) - 1, {}
            for i in range(nr):
                bits = mask >> (i * nc) & row
                while bits and bits.bit_length() in pivots:
                    bits ^= pivots[bits.bit_length()]
                if bits:
                    pivots[bits.bit_length()] = bits
            got = self.ranks[mask] = [len(pivots), False]
        if got[0] <= budget and not got[1]:
            got[:] = _rank_q([[mask >> (i * self.nc + j) & 1 for j in range(self.nc)]
                              for i in range(self.nr)]), True
        return got[0] > budget

    def _exact(self, z, left, budget, acc):
        """The first partition, after ``acc``, of the cells ``left`` into
        at most ``budget`` of color z's candidates; None if none."""
        if not left:
            return list(acc)
        if budget == 0 or self._rank_above(z, left, budget):
            return None
        for cand in self.by_low[z].get(left & -left, ()):
            self.work[z].charge(1)
            if cand[4] & ~left == 0:
                acc.append(cand)
                got = self._exact(z, left & ~cand[4], budget - 1, acc)
                acc.pop()
                if got is not None:
                    return got
        return None

    def _optional(self, z, left, blocked, budget, acc):
        """Each partition, after ``acc``, of the z-cells ``left`` into at
        most ``budget`` of color z's candidates that avoid the cells
        ``blocked``; no candidate holds more than ``most[z]`` defined
        cells.  A node also returns when a greedy fooling set of ``left``
        against the 1-z cells and ``blocked`` exceeds ``budget``."""
        if not left:
            yield list(acc)
            return
        if budget * self.most[z] < left.bit_count():
            return
        fooling = _greedy_blocked_fooling(left, self.z_cells[1 - z] | blocked,
                                          self.nr, self.nc, budget).bit_count()
        self.work[z].charge(fooling)
        if fooling > budget:
            return
        for cand in self.by_def[z].get(left & -left, ()):
            self.work[z].charge(1)
            if not cand[4] & blocked:
                acc.append(cand)
                yield from self._optional(z, left & ~cand[3], blocked | cand[4],
                                          budget - 1, acc)
                acc.pop()

    def _fixed(self, z, subset, budget):
        """The memoized first partition of color z's completion ``subset``
        into at most ``budget`` parts, or None."""
        entry = self.memo.setdefault((z, subset), [-1, None])
        refuted, found = entry
        if found is not None and len(found) <= budget:
            return found
        if budget <= refuted:
            return None
        extra = self.extra[z]
        target = self.z_cells[z] | sum(1 << extra[i] for i in _mask_to_indices(subset))
        got = self._exact(z, target, budget, [])
        if got is None:
            entry[0] = budget
        else:
            entry[1] = got
        return got

    def _used(self, parts):
        """The undefined cells of ``parts``."""
        used = 0
        for cand in parts:
            used |= cand[4]
        return used & self.undefined

    def _parts0(self, budget, budget1):
        """Color 0's partitions into at most ``budget`` parts that leave
        color 1 a completion bounded by ``budget1``; optional ones only
        once per set of undefined cells they use."""
        if self.extra[0] is None:
            seen = set()
            for parts in self._optional(0, self.z_cells[0], 0, budget, []):
                used = self._used(parts)
                if used not in seen and self.least[self.full1 ^ self._index1(used)] <= budget1:
                    seen.add(used)
                    yield parts
            return
        fits = (self.bounds[0] <= budget) & (self.least[self.left1] <= budget1)
        for subset in np.flatnonzero(fits).tolist():
            parts = self._fixed(0, subset, budget)
            if parts is not None:
                yield parts

    def _parts1(self, budget, taken):
        """Color 1's first partition into at most ``budget`` parts that
        avoids the undefined cells ``taken``, or None."""
        if self.extra[1] is None:
            key = (taken, budget)
            if key not in self.loose:
                self.loose[key] = next(self._optional(1, self.z_cells[1], taken, budget, []),
                                       None)
            return self.loose[key]
        self.work[1].charge(len(self.subsets1) // 64)
        fits = (self.bounds[1] <= budget) & (self.subsets1 & self._index1(taken) == 0)
        for subset in np.flatnonzero(fits).tolist():
            parts = self._fixed(1, subset, budget)
            if parts is not None:
                return parts
        return None

    def level(self, k):
        """The first partition into at most k parts over the splits
        p_0 + p_1 = k by rising p_0, or None if there is none."""
        low0, low1 = int(self.bounds[0].min()), int(self.bounds[1].min())
        for p0 in range(low0, k - low1 + 1):
            for parts in self._parts0(p0, k - p0):
                got = self._parts1(k - p0, self._used(parts))
                if got is not None:
                    return parts + got
        return None


# never called: perfbench/spans.py traces the binding regcc.commcc.milp, and
# its --trace 1 runs look the name up
milp = None


def min_disjoint_cover(f: CommFunction):
    """Exact minimum partition of the defined cells into monochromatic
    rectangles (pairwise disjoint as cell sets).  Returns (count, Cover).

    On a total function each color is bounded below by the exact rank of
    its 0/1 matrix over Q: a partition sums outer products to that matrix.
    The leaves of a protocol tree partition the matrix, so when the depth
    search's tree has rank(0-cells) + rank(1-cells) leaves, they are a
    minimum partition and are returned.

    On a promise function the parts of a color cover its cells plus some
    undefined ones, so the bound is the least sum over the two colors of
    the ranks of such 0/1 completions, each at least the color's fooling
    number.

    Every other case (a total function whose tree has more leaves or
    whose depth search exceeds its work cap, and every promise function)
    runs the level search of ``_Partitions``, deepening from the bound one
    level at a time until a level holds a partition.  Each color's meter
    raises CapError past WORK_CAP."""
    row_groups, col_groups, masks = _merged(f)
    nr, nc = len(row_groups), len(col_groups)
    if nr > DISJOINT_CAP or nc > DISJOINT_CAP:
        raise CapError("disjoint-cover search capped at %dx%d distinct rows/columns"
                       % (DISJOINT_CAP, DISJOINT_CAP))
    z_cells = [_flat(masks[z], nc) for z in (0, 1)]
    defined = z_cells[0] | z_cells[1]
    undefined = ((1 << (nr * nc)) - 1) & ~defined
    if not undefined:
        picked = _rank_tight_leaves(row_groups, col_groups, masks)
        if picked is not None:
            return _disjoint_result(row_groups, col_groups, picked)
    cands = []
    for rows_mask, cols_mask, color in _closed_rectangles(masks, nc):
        foot = _cells(rows_mask, cols_mask, nc)
        cands.append((rows_mask, cols_mask, color, foot & defined, foot))
    fooling = [len(_fooling_cells(masks, z)) if undefined and z_cells[z] else 0
               for z in (0, 1)]
    search = _Partitions(cands, z_cells, undefined, fooling, nr, nc)
    k = search.bound
    while (picked := search.level(k)) is None:
        k += 1
    return _disjoint_result(row_groups, col_groups, picked)


def _disjoint_result(row_groups, col_groups, picked):
    """(count, Cover) of merged parts whose first two fields are the
    (row mask, col mask) pair, listed in mask order."""
    rects = tuple(_rectangle(row_groups, col_groups, rm, cm)
                  for rm, cm, *_ in sorted(picked))
    return len(rects), Cover(None, rects)


def _rank_tight_leaves(row_groups, col_groups, masks):
    """The leaves of the depth search's protocol tree on a total merged
    matrix as (row mask, col mask) pairs, when they number rank(0-cells) +
    rank(1-cells), the least count of any partition; None when they number
    more or the depth search exceeds its cap."""
    try:
        leaves = _protocol_tree(row_groups, col_groups, masks)[2]
    except CapError:
        return None
    nc = len(col_groups)
    ranks = sum(_rank_q([[m >> c & 1 for c in range(nc)] for m in masks[z]])
                for z in (0, 1))
    return leaves if len(leaves) == ranks else None


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


def _group_summaries(keys, group_masks, across, weigh):
    """Each group of equal rows (columns), its cells ``keys[g]`` read along
    the indices ``across``, as (mask, 0-mask, 1-mask, mixed, rows): the
    indices where it holds 0 and 1, whether it holds both, and its size
    when ``weigh`` (rows), else 0 (columns)."""
    out = []
    for key, mask in zip(keys, group_masks):
        x0 = x1 = 0
        for i, v in zip(across, key):
            if v == 0:
                x0 |= 1 << i
            elif v == 1:
                x1 |= 1 << i
        out.append((mask, x0, x1, bool(x0 and x1), mask.bit_count() if weigh else 0))
    return out


def _half_table(start, groups):
    """``start`` extended by every split of ``groups`` into parts a and b,
    in binary counting order (bit k puts group k in part a), as in
    ``_split_tables``."""
    table = [start]
    for mask, x0, x1, mixed, n in groups:
        table = [(pa, xa, ya, fa, xb | x0, yb | x1, fb or mixed, na, nb + n)
                 for pa, xa, ya, fa, xb, yb, fb, na, nb in table] + \
                [(pa | mask, xa | x0, ya | x1, fa or mixed, xb, yb, fb, na + n, nb)
                 for pa, xa, ya, fa, xb, yb, fb, na, nb in table]
    return table


def _split_tables(groups, bits):
    """Half tables of the splits of ``groups``, summaries (mask, 0-mask,
    1-mask, mixed, rows) in order, whose picks fit in ``bits`` bits.  Part
    a holds group 0, and pick p puts group k + 1 in part a when bit k of p
    is set; the groups past ``bits`` stay in part b.  Returns (low, high),
    over the low bits // 2 bits of a pick and the rest: pick p's summary
    (mask a, 0-mask a, 1-mask a, mixed a, 0-mask b, 1-mask b, mixed b,
    rows a, rows b) is low[p % len(low)] and high[p // len(low)] combined,
    masks and flags ORed and rows added."""
    h = bits // 2
    mask_a, zeros_a, ones_a, mixed_a, n_a = groups[0]
    zeros_b = ones_b = n_b = 0
    mixed_b = False
    for _, x0, x1, mixed, n in groups[bits + 1:]:
        zeros_b, ones_b, mixed_b, n_b = zeros_b | x0, ones_b | x1, mixed_b or mixed, n_b + n
    start = (mask_a, zeros_a, ones_a, mixed_a, zeros_b, ones_b, mixed_b, n_a, n_b)
    return (_half_table((0, 0, 0, False, 0, 0, False, 0, 0), groups[1:h + 1]),
            _half_table(start, groups[h + 1:bits + 1]))


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

    Each rectangle has a lower bound lb on its depth, from a set of cells
    no two of which share a leaf: depth >= max(1, ceil(log2 leaves)).  With
    no undefined cell, a protocol tree has at least rank(1-cells) +
    rank(0-cells) leaves (ranks over Q).  With one, the bound is a fooling
    set of each color z, ``_greedy_blocked_fooling`` on flat cell bits:
    the rectangle's z-cells taken lowest first when a defined 1-z cross
    cell separates them from every cell already taken.
    The search stops at the first split reaching lb: no later split can
    beat a proven minimum, so the rule above still picks it.

    The search is cut off like alpha-beta search.  ``solve`` is given a
    limit and returns the exact depth when it is below the limit, else a
    lower bound of at least the limit; a split's children get the best
    depth found so far minus one, so a split that cannot beat it stops at
    its first child that reaches it.  The memo keeps (bound, exact) pairs
    and reuses an inexact bound for any limit it reaches.  The tree walk
    has no limit, so each node's split is the rule's.

    The bottom two levels have a closed form, so a query with limit <= 2
    takes no canonical form, memo entry or split: depth 0 when at most one
    defined color occurs, else 1 when no row or no column holds both, else
    at least 2.  Undefined cells side with either color, so the rows split
    into two monochromatic parts exactly when each row is monochromatic.
    A split search makes such queries once its best depth is at most 3,
    and answers them itself: each group of equal rows (columns) is
    summarised once along the other side by its 0-mask, its 1-mask and
    whether it holds both, and a part, ORing its groups' summaries into X,
    Y and F, has depth 0 unless X and Y are both nonempty, else 2 when F
    holds and X & Y is nonempty, else 1.  Two half tables, over the low
    half of a pick's bits and the rest, give each pick's parts and their
    summaries in two lookups.

    Raises CapError past WORK_CAP units: per r x c rectangle of the
    matrix with equal rows and columns merged, r per closed-form query,
    r*c per canonical form on a cache miss (the whole matrix's charged
    before any table of its cells is built) and per split search, then
    4*r*c*min(r, c) per rank or 2*r*c per fooling set, and the group count
    per split tried."""
    return _protocol_tree(*_merged(f))[:2]


def _protocol_tree(row_groups, col_groups, masks):
    """``exact_deterministic_cc`` on a ``_merged`` matrix: (depth, tree,
    leaves), the tree over original indices and its leaves, in tree order,
    as merged (row mask, col mask) pairs.  Splits keep equal rows (columns)
    together, and merged columns keep the order of their first original
    column, so the tree is the one the rule gives on the original matrix."""
    nr, nc = len(row_groups), len(col_groups)
    budget = _Budget("protocol-depth")
    # the root's canonical form, charged as solve would but before the
    # tables below, so that a matrix past the cap builds none of them
    budget.charge(nr * nc)
    # base[r][c]: the merged cell as -1 (undefined), 0 or 1
    base = [tuple(0 if zeros >> c & 1 else 1 if ones >> c & 1 else -1 for c in range(nc))
            for zeros, ones in zip(*masks)]
    # each color's cells and the undefined ones as flat bits r * nc + c
    cells = [_flat(rows, nc) for rows in masks]
    undefined = ((1 << (nr * nc)) - 1) & ~(cells[0] | cells[1])
    memo = {}  # canonical content -> [depth or lower bound, exact]
    by_rect = {}  # rows mask << nc | cols mask -> its memo entry
    no_limit = 10 ** 9

    def canon(row_idx, col_idx):
        rows = tuple(sorted({tuple(base[i][j] for j in col_idx) for i in row_idx}))
        for _ in range(4):
            cols = tuple(sorted(set(zip(*rows))))
            rows2 = tuple(sorted(set(zip(*cols))))
            if rows2 == rows:
                break
            rows = rows2
        return rows

    def best_split(rows, cols, limit=no_limit):
        """(depth, split) of rows x cols over row and column masks: the
        depth when it is below ``limit``, else a lower bound of at least
        ``limit``.  split is None at a leaf or past the limit, else (side,
        (part_a, part_b)), the first split in the rule's order that reaches
        the depth."""
        row_idx, col_idx = _mask_to_indices(rows), _mask_to_indices(cols)
        r, c = len(row_idx), len(col_idx)
        budget.charge(r * c)
        rect = _cells(rows, cols, nc)
        if not rect & cells[0] or not rect & cells[1]:
            return 0, None
        if rect & undefined:
            budget.charge(2 * r * c)
            leaves = sum(_greedy_blocked_fooling(rect & cells[z], cells[1 - z], nr, nc,
                                                 no_limit).bit_count() for z in (0, 1))
        else:
            budget.charge(4 * r * c * min(r, c))
            leaves = sum(_rank_q([[base[i][j] == z for j in col_idx] for i in row_idx])
                         for z in (0, 1))
        lb = max(1, _log2ceil(leaves))
        if lb >= limit:
            return lb, None
        best, split = limit, None
        for side in ("rows", "cols"):
            # a part's closed-form query charges its row count: fixed plus
            # the sizes of its row groups
            if side == "rows":
                whole, across, fixed = rows, col_idx, 0
            else:
                whole, across, fixed = cols, row_idx, r
            groups = {}
            for x in (row_idx if side == "rows" else col_idx):
                key = tuple(base[x][j] for j in col_idx) if side == "rows" \
                    else tuple(base[i][x] for i in row_idx)
                groups[key] = groups.get(key, 0) | 1 << x
            keys = sorted(groups)
            group_masks = [groups[key] for key in keys]
            count = len(group_masks)
            low = None
            # part_a holds group 0; every proper complement appears once
            for pick in range((1 << (count - 1)) - 1):
                if best > 3:
                    budget.charge(count)
                    part_a = group_masks[0]
                    for k in range(1, count):
                        if pick >> (k - 1) & 1:
                            part_a |= group_masks[k]
                    parts = ((part_a, cols), (whole ^ part_a, cols)) if side == "rows" \
                        else ((rows, part_a), (rows, whole ^ part_a))
                    d1 = solve(*parts[0], best - 1)
                    if d1 + 1 >= best:
                        continue
                    d = 1 + max(d1, solve(*parts[1], best - 1))
                    if d >= best:
                        continue
                else:
                    if low is None:
                        # every later child is a closed-form query, read off
                        # two half tables.  A pick charges count first, so
                        # picks from pick + (cap - spent) // count on raise:
                        # the tables need cover only the bits below them
                        bits = min(count - 1, (pick + (budget.cap - budget.spent) // count)
                                   .bit_length())
                        low, high = _split_tables(
                            _group_summaries(keys, group_masks, across, side == "rows"), bits)
                        h = bits // 2
                        low_bits = (1 << h) - 1
                    pa_l, xa_l, ya_l, fa_l, xb_l, yb_l, fb_l, na_l, nb_l = low[pick & low_bits]
                    pa_h, xa_h, ya_h, fa_h, xb_h, yb_h, fb_h, na_h, nb_h = high[pick >> h]
                    # each part's depth capped at 2, read off the summaries
                    budget.charge(count + fixed + na_h + na_l)
                    x0, x1 = xa_h | xa_l, ya_h | ya_l
                    d1 = 0 if not (x0 and x1) else 2 if (fa_h or fa_l) and x0 & x1 else 1
                    if d1 + 1 >= best:
                        continue
                    budget.charge(fixed + nb_h + nb_l)
                    x0, x1 = xb_h | xb_l, yb_h | yb_l
                    d = 1 + max(d1, 0 if not (x0 and x1)
                                else 2 if (fb_h or fb_l) and x0 & x1 else 1)
                    if d >= best:
                        continue
                    part_a = pa_h | pa_l
                    parts = ((part_a, cols), (whole ^ part_a, cols)) if side == "rows" \
                        else ((rows, part_a), (rows, whole ^ part_a))
                best, split = d, (side, parts)
                if best <= lb:
                    return best, split
        return best, split

    def solve(rows, cols, limit=no_limit):
        """best_split's depth or bound, memoized by canonical content, for a
        limit of at least 3; best_split answers lower limits itself."""
        rect = rows << nc | cols
        entry = by_rect.get(rect)
        if entry is None:
            budget.charge(rows.bit_count() * cols.bit_count())
            key = canon(_mask_to_indices(rows), _mask_to_indices(cols))
            entry = by_rect[rect] = memo.setdefault(key, [0, False])
        if not entry[1] and entry[0] < limit:
            d = best_split(rows, cols, limit)[0]
            entry[:] = d, d < limit
        return entry[0]

    leaves = []

    def walk(rows, cols):
        row_idx, col_idx = _expand(row_groups, rows), _expand(col_groups, cols)
        _, split = best_split(rows, cols)
        if split is None:
            leaves.append((rows, cols))
            return ProtocolNode(row_idx, col_idx,
                                color=0 if _cells(rows, cols, nc) & cells[0] else 1)
        side, parts = split
        return ProtocolNode(row_idx, col_idx, split=side,
                            children=tuple(walk(*part) for part in parts))

    full_rows, full_cols = (1 << nr) - 1, (1 << nc) - 1
    by_rect[full_rows << nc | full_cols] = memo.setdefault(canon(range(nr), range(nc)), [0, False])
    return solve(full_rows, full_cols), walk(full_rows, full_cols), leaves


# ---------------------------------------------------------------------------
# fooling sets

def max_fooling_set(f: CommFunction, z: int):
    """Maximum fooling set for color z, exact via maximum clique on the
    pairwise-separation graph.

    Two z-cells may coexist only if some cross cell carries the defined
    opposite value; an undefined cross cell is a wildcard, so it does not
    separate (the pair could still share a z-monochromatic rectangle, and
    the bound fooling <= C^z would break).  One meter covers the graph and
    the clique search: the graph's n(n-1)/2 pairs of the n merged z-cells
    are charged before any cell is listed, which also bounds the memory
    of its adjacency masks.
    """
    row_groups, col_groups, masks = _merged(f)
    return sorted((row_groups[r][0], col_groups[c][0]) for r, c in _fooling_cells(masks, z))


def _fooling_cells(masks, z):
    """``max_fooling_set`` on a ``_merged`` matrix: the merged (row,
    column) cells of a maximum fooling set for color z."""
    n = sum(m.bit_count() for m in masks[z])
    budget = _Budget("fooling-set clique")
    budget.charge(n * (n - 1) // 2)
    cells = [(r, c) for r, m in enumerate(masks[z]) for c in _mask_to_indices(m)]
    other = masks[1 - z]
    adj = [0] * n
    for a in range(n):
        ra, ca = cells[a]
        for b in range(a + 1, n):
            rb, cb = cells[b]
            if other[ra] >> cb & 1 or other[rb] >> ca & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return [cells[k] for k in _mask_to_indices(_max_clique(adj, n, budget))]


def _max_clique(adj, n, budget):
    """Exact maximum clique with greedy-coloring bound.  Charges
    ``budget``, which raises CapError past its cap: n per node, the
    vertices its coloring scans, and per vertex colored the color classes
    it may try.  A branch k deep holds a clique of k vertices, whose
    colorings alone cost about k^3/6 units, so within WORK_CAP the
    recursion stays a few hundred frames deep."""
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    best = [0, 0]  # size, mask

    def color_bound(p_mask):
        colors = []
        order_p = [v for v in order if p_mask >> v & 1]
        bounds = {}
        for v in order_p:
            budget.charge(len(colors))
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
    one_rects = [r for r, color in colored if color == 1]
    name_bits = _log2ceil(len(rects))
    live = [r for r, color in colored if color == 0]
    bits = 0
    while live:
        for side, mine in (("rows", x), ("cols", y)):
            bits += 1  # the player's found/failed flag; Bob's failure is the 0-answer
            hits = next((hits for r1 in one_rects if mine in getattr(r1, side)
                         for hits in [[r0 for r0 in live
                                       if set(getattr(r0, side)) & set(getattr(r1, side))]]
                         if len(hits) <= len(live) / 2), None)
            if hits is not None:
                bits += name_bits
                live = hits
                break
        else:
            return 0, bits
    return 1, bits + 1


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
