import functools
import itertools
import operator
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regcc import commcc
from regcc.automata import EPSILON, CapError, CcError, Dfa, accepts, builtin_language
from regcc.commcc import (
    UNDEF, CommFunction, Cover, ProtocolNode, Rectangle, RectangleMeasure,
    builtin_function, exact_deterministic_cc, format_indices,
    language_problem, language_problem_partition, max_fooling_set,
    max_rectangle_measure, min_cover, min_disjoint_cover, monochromatic_color,
    monoid_problem, serialize_cover, serialize_function,
    simulate_cover_protocol, validate_disjoint_cover,
)
from regcc.commcc import (
    _batch_ranks, _cells, _closed_rectangles, _completion_ranks, _concepts,
    _cover_floor, _crown_floor, _greedy_blocked_fooling, _mask_to_indices,
    _merged, _rank_q, _split_tables, _undominated,
)
from regcc.monoid import (
    FiniteMonoid, OrderedMonoid, ideal_generated, syntactic_ordered_monoid,
)
from regcc.reductions import ACCEPT_IS_ONE, LanguageTarget, LocalReduction, _replayer


def log2ceil(k):
    return (k - 1).bit_length() if k > 1 else 0


def all_rects(f):
    rows = range(f.n_rows)
    cols = range(f.n_cols)
    for rs in range(1, 1 << f.n_rows):
        rset = tuple(i for i in rows if rs >> i & 1)
        for cs in range(1, 1 << f.n_cols):
            cset = tuple(j for j in cols if cs >> j & 1)
            yield Rectangle(rset, cset)


def brute_min_cover(f, z):
    """Oracle: exhaustive subset search over maximal z-monochromatic
    rectangles (every cover extends to one made of maximal rectangles)."""
    mono = [r for r in all_rects(f)
            if all(f.value(i, j) != 1 - z for i, j in r.cells())]
    mono_sets = [frozenset(r.cells()) for r in mono]
    maximal = [r for r, cs in zip(mono, mono_sets)
               if not any(cs < other for other in mono_sets)]
    cells = set(f.z_cells(z))
    for k in range(1, len(cells) + 1):
        for combo in itertools.combinations(maximal, k):
            covered = set()
            for r in combo:
                covered.update(r.cells())
            if cells <= covered:
                return k
    raise AssertionError


def reference_set_cover(universe, candidates, budget=None, floor=None):
    """Oracle: the minimum-cover branch and bound with one global bound,
    ceil(|uncovered| / largest candidate), for every node, unmetered, and
    no floor to stop at: ``floor`` is ignored.  Its branching cell,
    candidate order and strict-improvement incumbent rule are those of
    ``commcc._set_cover_exact``, so the two return the same cover."""
    cell_cands = {}
    for idx in _mask_to_indices(universe):
        cell_cands[idx] = [c for c in candidates if c[2] >> idx & 1]
        if not cell_cands[idx]:
            raise CcError("cell %d cannot be covered" % idx)

    covered = 0
    greedy = []
    while covered != universe:
        best = max(candidates, key=lambda c: (c[2] & ~covered).bit_count())
        greedy.append(best)
        covered |= best[2]
    best_count = len(greedy)
    best_sel = list(greedy)
    max_size = max(c[2].bit_count() for c in candidates)
    branch = [(1 << idx, cell_cands[idx])
              for idx in sorted(cell_cands, key=lambda idx: len(cell_cands[idx]))]

    def bound(covered, picked):
        need = ((universe & ~covered).bit_count() + max_size - 1) // max_size
        return picked + need < best_count

    def dfs(covered, sel):
        nonlocal best_count, best_sel
        uncovered = universe & ~covered
        for bit, pick_cands in branch:
            if uncovered & bit:
                break
        picked = len(sel) + 1
        for c in pick_cands:
            after = covered | c[2]
            if after == universe:
                if picked < best_count:
                    best_count, best_sel = picked, sel + [c]
            elif bound(after, picked):
                sel.append(c)
                dfs(after, sel)
                sel.pop()

    if bound(0, 0):
        dfs(0, [])
    return best_count, best_sel


def bfs_concepts(forbidden, n_cols):
    """Oracle: the maximal rectangles avoiding ``forbidden`` by search over
    (row mask, col mask) pairs, from all rows, each step narrowing the rows
    to those allowing one more column and closing the columns again."""
    n_rows = len(forbidden)
    compat_rows = [((1 << n_cols) - 1) & ~m for m in forbidden]
    all_rows = (1 << n_rows) - 1
    col_rows = []
    for c in range(n_cols):
        mask = 0
        for r in range(n_rows):
            if compat_rows[r] >> c & 1:
                mask |= 1 << r
        col_rows.append(mask)

    def intent(rowmask):
        out = (1 << n_cols) - 1
        r = rowmask
        while r:
            low = r & -r
            out &= compat_rows[low.bit_length() - 1]
            r ^= low
        return out

    start = (all_rows, intent(all_rows))
    seen = {start}
    queue = [start]
    out = []
    while queue:
        ext, inte = queue.pop()
        if ext and inte:
            out.append((ext, inte))
        for c in range(n_cols):
            if inte >> c & 1:
                continue
            ext2 = ext & col_rows[c]
            if not ext2:
                continue
            node = (ext2, intent(ext2))
            if node not in seen:
                seen.add(node)
                queue.append(node)
    out.sort()
    return out


def reference_min_cover(f, z):
    with mock.patch.object(commcc, "_set_cover_exact", reference_set_cover):
        return min_cover(f, z)


def cover_candidates(f, z):
    """The candidate list ``min_cover`` hands its search."""
    seen = []

    def capture(universe, candidates, budget, floor):
        seen.append(candidates)
        return reference_set_cover(universe, candidates)

    with mock.patch.object(commcc, "_set_cover_exact", capture):
        min_cover(f, z)
    return seen[0]


def brute_min_disjoint(f):
    """Oracle: plain first-cell backtracking over all monochromatic
    rectangles, no pruning beyond disjointness."""
    rects = [r for r in all_rects(f)
             if monochromatic_color(f, r, vacuous=0) is not None]
    cells = [(i, j) for i, j, _ in f.defined_cells()]
    best = [len(cells)]

    def dfs(covered, used, count):
        if count >= best[0]:
            return
        target = next((c for c in cells if c not in covered), None)
        if target is None:
            best[0] = count
            return
        for r in rects:
            rc = set(r.cells())
            if target in rc and not (rc & used):
                dfs(covered | (rc & set(cells)), used | rc, count + 1)

    dfs(set(), set(), 0)
    return best[0]


def brute_closed_rectangles(f):
    """Oracle: every z-compatible rectangle from ``all_rects`` that equals
    the hull of its defined cells, as sorted (row mask, col mask, z)."""
    out = []
    for r in all_rects(f):
        defined = [(i, j, f.value(i, j)) for i, j in r.cells()
                   if f.value(i, j) is not None]
        if {i for i, _, _ in defined} != set(r.rows) or \
                {j for _, j, _ in defined} != set(r.cols):
            continue
        for z in (0, 1):
            if all(v == z for _, _, v in defined):
                out.append((sum(1 << i for i in r.rows),
                            sum(1 << j for j in r.cols), z))
    return sorted(out)


def fraction_rank(mat):
    """Oracle: rank over the rationals by Gaussian elimination on Fractions."""
    m = [[Fraction(v) for v in row] for row in mat]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


@st.composite
def matrices(draw, alphabet, max_rows, max_cols):
    """Rectangular matrices over ``alphabet`` with at least one 0/1 cell,
    as tuples of row strings."""
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    cell = st.sampled_from(alphabet)
    rows = tuple("".join(draw(cell) for _ in range(nc)) for _ in range(nr))
    assume(any(ch in "01" for row in rows for ch in row))
    return rows


@st.composite
def repeated_matrices(draw, alphabet, base_size, max_size):
    """Matrices over ``alphabet`` up to max_size x max_size whose rows and
    columns are drawn, with repetition, from those of a matrix up to
    base_size x base_size."""
    base = draw(matrices(alphabet, base_size, base_size))
    row_pick = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=max_size))
    col_pick = draw(st.lists(st.integers(0, len(base[0]) - 1), min_size=1, max_size=max_size))
    rows = tuple("".join(base[i][j] for j in col_pick) for i in row_pick)
    assume(any(ch in "01" for row in rows for ch in row))
    return rows


def as_function(rows):
    return CommFunction("random", tuple("r%d" % i for i in range(len(rows))),
                        tuple("c%d" % j for j in range(len(rows[0]))), rows)


@functools.cache
def rule_protocol_tree(f, rows, cols):
    """Oracle: the depth and tree of ``exact_deterministic_cc``'s stated rule
    on the unmerged matrix, cached by (matrix, rows, columns) alone, with no
    bounds and no memo by content as in the search.  Splits run rows before
    columns over groups of equal rows (columns) sorted by content; group 0
    plus the groups picked by the bits of a counter form one side.  A node
    takes the first split whose worst child is least; a leaf takes the
    least defined color."""
    defined = {f.value(i, j) for i in rows for j in cols} - {None}
    if len(defined) < 2:
        return 0, ProtocolNode(rows, cols, color=min(defined, default=None))
    best = None
    for side in ("rows", "cols"):
        groups = {}
        for x in (rows if side == "rows" else cols):
            # "*" < "0" < "1", the order of the contents as -1, 0, 1
            key = "".join(f.rows[x][j] for j in cols) if side == "rows" else \
                "".join(f.rows[i][x] for i in rows)
            groups.setdefault(key, []).append(x)
        keys = sorted(groups)
        for pick in range((1 << (len(keys) - 1)) - 1):
            part_a = sorted(x for k, key in enumerate(keys)
                            if k == 0 or pick >> (k - 1) & 1 for x in groups[key])
            part_b = sorted(x for k, key in enumerate(keys)
                            if k > 0 and not pick >> (k - 1) & 1 for x in groups[key])
            if side == "rows":
                parts = ((tuple(part_a), cols), (tuple(part_b), cols))
            else:
                parts = ((rows, tuple(part_a)), (rows, tuple(part_b)))
            (d1, t1), (d2, t2) = (rule_protocol_tree(f, *part) for part in parts)
            if best is None or 1 + max(d1, d2) < best[0]:
                best = (1 + max(d1, d2),
                        ProtocolNode(rows, cols, split=side, children=(t1, t2)))
    return best


def brute_max_fooling(f, z):
    """Oracle: exhaustive subset search for the fooling condition with
    defined-opposite separation."""
    cells = list(f.z_cells(z))
    best = 0
    for k in range(len(cells), 0, -1):
        for combo in itertools.combinations(cells, k):
            ok = True
            for (x1, y1), (x2, y2) in itertools.combinations(combo, 2):
                if f.value(x1, y2) != 1 - z and f.value(x2, y1) != 1 - z:
                    ok = False
                    break
            if ok:
                return k
    return best


# --- built-ins ---------------------------------------------------------------

def test_eq_small():
    f = builtin_function("EQ", 1)
    assert f.rows == ("10", "01")


def test_disj_small():
    f = builtin_function("DISJ", 1)
    assert f.rows == ("11", "10")


def test_disj_counts_match_closed_form():
    for n in range(1, 13):
        assert builtin_function("DISJ", n).count(1) == 3 ** n


def test_pdisj_promise_cells():
    f = builtin_function("PDISJ", 2)
    undef = {(f.row_labels[i], f.col_labels[j])
             for i in range(4) for j in range(4) if f.value(i, j) is None}
    assert undef == {("11", "11")}


def test_ip_values():
    f = builtin_function("IP", 2, q=2)
    # <11,11> = 2 = 0 mod 2
    assert f.value(3, 3) == 1
    assert f.value(1, 1) == 0
    with pytest.raises(CcError):
        builtin_function("IP", 2)


def test_pip2_variants_differ():
    lit = builtin_function("PIP2", 2, variant="ZERO_SIDED")
    orc = builtin_function("PIP2", 2, variant="TWO_SIDED")
    assert lit.rows != orc.rows
    # every defined value agrees with IP_2 on both variants
    ip = builtin_function("IP", 2, q=2)
    for f in (lit, orc):
        for i, j, v in f.defined_cells():
            assert v == ip.value(i, j)
    with pytest.raises(CcError):
        builtin_function("PIP2", 2, variant="WHAT")


def _pip2_promised(xs, ys, variant):
    """The prefix conditions at mixed positions, scanned from the most
    significant bit: TWO_SIDED wants an even count of earlier common ones
    at (0,1) and an odd one at (1,0); ZERO_SIDED wants the opposite."""
    even = True
    for a, b in zip(xs, ys):
        if a != b and even != ((a == "0") == (variant == "TWO_SIDED")):
            return False
        if a == b == "1":
            even = not even
    return True


def defined_cell(name, xs, ys, q=None, variant=None):
    x, y = int(xs, 2), int(ys, 2)
    common = (x & y).bit_count()
    if name == "EQ":
        return "1" if x == y else "0"
    if name == "NEQ":
        return "0" if x == y else "1"
    if name == "LT":
        return "1" if x <= y else "0"
    if name == "DISJ":
        return "1" if common == 0 else "0"
    if name == "PDISJ":
        return "1" if common == 0 else "0" if common == 1 else UNDEF
    if name == "IP":
        return "1" if common % q == 0 else "0"
    value = "1" if common % 2 == 0 else "0"
    if value == "1" and variant == "ZERO_SIDED" or _pip2_promised(xs, ys, variant):
        return value
    return UNDEF


def test_builtin_functions_match_their_definitions():
    # q = 300 and 10^9 have more residues than a state byte holds
    kwargs = [("IP", {"q": q}) for q in (2, 3, 5, 13, 300, 10 ** 9)]
    kwargs += [("PIP2", {"variant": v}) for v in commcc.PIP2_VARIANTS]
    kwargs += [(name, {}) for name in ("EQ", "NEQ", "DISJ", "LT", "PDISJ")]
    for name, kw in kwargs:
        for n in range(1, 7):
            f = builtin_function(name, n, **kw)
            labels = tuple(format(x, "0%db" % n) for x in range(1 << n))
            assert (f.row_labels, f.col_labels) == (labels, labels)
            assert f.rows == tuple("".join(defined_cell(name, xs, ys, **kw) for ys in labels)
                                   for xs in labels), (name, kw, n)
            assert f.name == ("IP_%d" % kw["q"] if name == "IP" else name)
            assert f.params == (("n", n),) + tuple(kw.items())


def test_materialization_cap():
    with pytest.raises(CapError):
        builtin_function("EQ", 13)
    with pytest.raises(CcError):
        builtin_function("NOPE", 2)


# --- language and monoid problems -------------------------------------------

def test_language_problem_z3():
    f = language_problem(builtin_language("Z3_LANG"), 1)
    assert f.row_labels == ("_", "a")
    assert f.rows == ("10", "00")


def test_language_problem_l5():
    f = language_problem(builtin_language("L5"), 1)
    assert f.n_rows == f.n_cols == 3


def test_language_problem_bounds():
    with pytest.raises(CcError):
        language_problem(builtin_language("Z3_LANG"), 0)
    with pytest.raises(CapError):
        language_problem(builtin_language("L5"), 12)
    # one size check, in the partition builder: the alternating partition
    # deals n positions to each side
    for build in (lambda d: language_problem(d, 8),
                  lambda d: language_problem_partition(d, 9, range(8))):
        with pytest.raises(CapError, match=r"language problem size 3\^8 exceeds cap"):
            build(builtin_language("L5"))


def test_monoid_problem_trivial():
    m = OrderedMonoid.with_equality(
        FiniteMonoid(1, 0, ((0,),), ("",), ()))
    ideal = ideal_generated(m, [0])
    f = monoid_problem(m, ideal, 2)
    assert f.rows == ("1",)


def test_monoid_problem_cap():
    om, _, ideal = syntactic_ordered_monoid(builtin_language("L5"))
    with pytest.raises(CapError):
        monoid_problem(om, ideal, 3)  # 31^3 rows


def test_min_cover_cap_on_distinct_rows():
    with pytest.raises(CapError):
        min_cover(builtin_function("EQ", 7), 1)


def test_monoid_problem_z3_depends_on_sum():
    om, _, ideal = syntactic_ordered_monoid(builtin_language("Z3_LANG"))
    f = monoid_problem(om, ideal, 1)
    for i in range(3):
        for j in range(3):
            assert f.value(i, j) == (1 if (i + j) % 3 == 0 else 0)


def test_worst_case_partition_cross_check():
    # the alternating split attains the maximum 1-cover over all ways to
    # deal out the padded positions (checked exhaustively at small sizes)
    for name, total in (("BA2_LANG", 2), ("Z3_LANG", 4), ("BA2_LANG", 4)):
        d = builtin_language(name)
        alternating = tuple(range(0, total, 2))
        best = 0
        for k in range(total + 1):
            for alice in itertools.combinations(range(total), k):
                f = language_problem_partition(d, total, alice)
                if f.count(1) == 0:
                    continue
                best = max(best, min_cover(f, 1)[0])
        reference = min_cover(language_problem_partition(d, total, alternating), 1)[0]
        assert best == reference


def test_partition_rejects_repeated_positions():
    with pytest.raises(CcError, match="repeat"):
        language_problem_partition(builtin_language("BA2_LANG"), 2, [0, 0])


# the per-cell definitions of the word-problem builders, the oracles of the
# fold that builds them


def reference_language_problem_partition(d, total, alice_positions):
    """``accepts`` on the word of every cell."""
    alice_positions = tuple(sorted(alice_positions))
    bob_positions = tuple(p for p in range(total) if p not in alice_positions)
    letters = (EPSILON,) + tuple(d.alphabet)
    a_tuples = list(itertools.product(letters, repeat=len(alice_positions)))
    b_tuples = list(itertools.product(letters, repeat=len(bob_positions)))
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


def reference_monoid_problem(m, members, n):
    """The product of every cell's elements, multiplied through the table."""
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


def random_dfa(rng, states, alphabet):
    """Any initial state, so some states may be unreachable, and no
    minimization, so some may be equivalent."""
    return Dfa.make(alphabet, states, rng.randrange(states),
                    {s for s in range(states) if rng.random() < 0.5},
                    {a: [rng.randrange(states) for _ in range(states)] for a in alphabet})


def cycle_dfa(states, alphabet="a"):
    """Counts the letters modulo ``states``; b, when there, doubles the count."""
    moves = {"a": [(s + 1) % states for s in range(states)],
             "b": [2 * s % states for s in range(states)]}
    return Dfa.make(alphabet, states, 0, {0, 7}, {a: moves[a] for a in alphabet})


def test_language_problem_partition_matches_its_definition():
    rng = random.Random(26)
    for _ in range(160):
        d = random_dfa(rng, rng.randint(1, 7), rng.choice(("ab", "abc")))
        total = rng.randint(0, 7)
        alice = rng.choice((
            [], list(range(total)),
            [p for p in range(total) if rng.random() < 0.5]))
        side = max(len(alice), total - len(alice))
        if (len(d.alphabet) + 1) ** side > commcc.PROBLEM_CELL_CAP:
            with pytest.raises(CapError):
                language_problem_partition(d, total, alice)
            continue
        assert language_problem_partition(d, total, alice) == \
            reference_language_problem_partition(d, total, alice), (d, total, alice)


def test_language_problem_matches_its_definition_past_a_byte_of_states():
    # 300 and 257 states: rows are int lists, where a byte holds no state
    for states, n in ((300, 1), (300, 3), (300, 6), (257, 2)):
        d = cycle_dfa(states, "ab" if n < 6 else "a")
        f = language_problem(d, n)
        assert f.rows == reference_language_problem_partition(d, 2 * n, range(0, 2 * n, 2)).rows
    # the same language with 260 unreachable states folds to the same rows
    rng = random.Random(27)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 5), "ab")
        k = d.state_count + 260
        padded = Dfa.make("ab", k, d.initial, d.accepting,
                          {a: list(d.moves[i]) + [0] * 260 for i, a in enumerate("ab")})
        assert language_problem(padded, 3) == language_problem(d, 3)


def cyclic_monoid(size):
    return FiniteMonoid(size, 0, tuple(tuple((x + y) % size for y in range(size))
                                       for x in range(size)),
                        tuple("g%d" % x for x in range(size)))


def test_monoid_problem_matches_its_definition():
    rng = random.Random(28)
    monoids = [cyclic_monoid(300)]
    while len(monoids) < 16:
        d = random_dfa(rng, rng.randint(2, 4), rng.choice(("ab", "abc")))
        monoids.append(syntactic_ordered_monoid(d)[0].monoid)
    for m in monoids:
        for n in range(1, 4):
            if m.size ** n > 64 and n > 1:
                break
            members = frozenset(x for x in range(m.size) if rng.random() < 0.4)
            assert monoid_problem(m, members, n) == reference_monoid_problem(m, members, n)


def test_local_reduction_onto_more_than_a_byte_of_states():
    # padded words into a 300-state language: the replay folds int lists
    rng = random.Random(29)
    target = LanguageTarget(cycle_dfa(300, "ab"))

    def words(k):
        return tuple("".join(rng.choice("ab_") for _ in range(2)) for _ in range(k))

    for source, q in (("DISJ", None), ("IP", 3), ("PDISJ", None)):
        r = LocalReduction("random", source, (words(2), words(2)), (words(2), words(2)),
                           words(1), words(1), words(1), words(1), target,
                           ACCEPT_IS_ONE, q)
        levels = _replayer(r)
        for n in range(1, 5):
            f = r.source(n)
            assert list(next(levels)) == [
                "".join(str(int(r.decides_one(x, y))) for y in f.col_labels)
                for x in f.row_labels]


# --- rectangles and covers ----------------------------------------------------

def test_monochromatic_color():
    f = builtin_function("PDISJ", 2)
    assert monochromatic_color(f, Rectangle((0,), (0,))) == 1
    # an all-undefined rectangle is monochromatic for either color
    assert monochromatic_color(f, Rectangle((3,), (3,)), vacuous=1) == 1
    assert monochromatic_color(f, Rectangle((3,), (3,)), vacuous=0) == 0
    eq = builtin_function("EQ", 1)
    assert monochromatic_color(eq, Rectangle((0, 1), (0, 1))) is None


def test_rectangle_nonempty():
    with pytest.raises(CcError):
        Rectangle((), (0,))


def test_function_rejects_cells_other_than_0_1_and_undefined():
    # any other character would act as a wildcard in the covers and crash
    # the depth search
    with pytest.raises(CcError, match="cells must be"):
        CommFunction("bad", ("a", "b"), ("c", "d"), ("1x", "01"))
    with pytest.raises(CcError, match="no defined cell"):
        CommFunction("undefined", ("a",), ("c", "d"), ("**",))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_min_cover_eq(n):
    f = builtin_function("EQ", n)
    count, cover = min_cover(f, 1)
    assert count == 2 ** n
    cells = set(f.z_cells(1))
    covered = set()
    for r in cover.rectangles:
        assert monochromatic_color(f, r, vacuous=1) == 1
        covered.update(r.cells())
    assert cells <= covered


def test_min_cover_matches_brute_oracle():
    for name, n, z in (("EQ", 1, 0), ("EQ", 2, 1), ("DISJ", 2, 0),
                       ("PDISJ", 2, 1), ("PDISJ", 2, 0), ("LT", 2, 1)):
        f = builtin_function(name, n)
        assert min_cover(f, z)[0] == brute_min_cover(f, z), (name, n, z)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 4, 4), st.sampled_from((0, 1)))
def test_min_cover_matches_brute_oracle_on_random_matrices(rows, z):
    f = as_function(rows)
    assume(f.count(z) > 0)
    count, cover = min_cover(f, z)
    assert count == len(cover.rectangles) == brute_min_cover(f, z)
    covered = set()
    for r in cover.rectangles:
        assert monochromatic_color(f, r, vacuous=z) == z
        covered.update(r.cells())
    assert set(f.z_cells(z)) <= covered


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 5, 5), st.sampled_from((0, 1)))
def test_min_cover_matches_reference_search(rows, z):
    # the per-node bound prunes only subtrees that cannot strictly beat the
    # incumbent, so the count and the printed cover are the global bound's
    f = as_function(rows)
    assume(f.count(z) > 0)
    assert min_cover(f, z) == reference_min_cover(f, z)


def builtins_at(n):
    for name, kw in (("EQ", {}), ("NEQ", {}), ("DISJ", {}), ("LT", {}),
                     ("PDISJ", {}), ("IP", {"q": 2}), ("IP", {"q": 3}),
                     ("PIP2", {"variant": "TWO_SIDED"}),
                     ("PIP2", {"variant": "ZERO_SIDED"})):
        yield builtin_function(name, n, **kw)


def test_min_cover_matches_reference_search_on_builtins():
    for n in (1, 2, 3):
        for f in builtins_at(n):
            for z in (0, 1):
                if f.count(z):
                    assert min_cover(f, z) == reference_min_cover(f, z), (f.name, n, z)


def test_concepts_match_bfs_on_builtins():
    for n in (1, 2, 3):
        for f in builtins_at(n):
            _row_groups, col_groups, masks = _merged(f)
            for z in (0, 1):
                if f.count(z):
                    assert _concepts(masks[1 - z], len(col_groups)) == \
                        bfs_concepts(masks[1 - z], len(col_groups)), (f.name, n, z)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 8, 8))
def test_concepts_match_bfs_on_random_matrices(rows):
    # unmerged rows, so equal rows and rows with no forbidden cell occur
    for z in (0, 1):
        forbidden = [sum(1 << j for j, ch in enumerate(row) if ch == str(1 - z))
                     for row in rows]
        assert _concepts(forbidden, len(rows[0])) == bfs_concepts(forbidden, len(rows[0]))


def test_concept_cap_stops_cover_and_measure():
    # EQ_5's 0-rectangles are the 2^32 - 2 pairs (S, complement of S)
    f = builtin_function("EQ", 5)
    with pytest.raises(CapError, match="maximal-rectangle"):
        min_cover(f, 0)
    with pytest.raises(CapError, match="maximal-rectangle"):
        max_rectangle_measure(f, 0, RectangleMeasure.indicator(f, 0))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01", 5, 5), st.sampled_from((0, 1)))
def test_dominance_filter_keeps_every_candidate_on_total_matrices(rows, z):
    # why min_cover skips the filter when no cell is undefined
    f = as_function(rows)
    assume(f.count(z) > 0)
    candidates = cover_candidates(f, z)
    assert _undominated(candidates, commcc._Budget("set-cover")) == candidates


def flat_cells(rows, ch):
    """The cells of ``rows`` holding ``ch``, as flat bits r * nc + c."""
    nc = len(rows[0])
    return sum(1 << (r * nc + c) for r, row in enumerate(rows)
               for c, x in enumerate(row) if x == ch)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 6, 6), st.sampled_from((0, 1)))
def test_cover_floor_is_at_most_the_least_cover(rows, z):
    # the crown and the greedy fooling set each certify a lower bound, on
    # the unmerged matrix too
    f = as_function(rows)
    assume(f.count(z) > 0)
    nr, nc = len(rows), len(rows[0])
    universe, forbid = flat_cells(rows, str(z)), flat_cells(rows, str(1 - z))
    assert _cover_floor(universe, forbid, nr, nc, nr * nc) <= brute_min_cover(f, z)


def test_crown_floor_of_eq_color_0():
    # EQ_n's 0-cells are the complement of a perfect matching, a crown on
    # all 2^n 1-cells: k rectangles need C(k, k // 2) >= 2^n, more than a
    # greedy fooling set shows
    for n, want in ((2, 4), (3, 5), (4, 6)):
        rows = builtin_function("EQ", n).rows
        universe, forbid = flat_cells(rows, "0"), flat_cells(rows, "1")
        assert _crown_floor(universe, forbid, 2 ** n, 2 ** n) == want
        fooling = _greedy_blocked_fooling(universe, forbid, 2 ** n, 2 ** n, want)
        assert fooling.bit_count() < want


def test_cover_search_stops_at_its_floor():
    # EQ_3 color 0 and NEQ_3 color 1 are one 8x8 crown; the search stops at
    # its first cover of 5 rectangles, the crown floor, instead of proving
    # 4 impossible node by node
    for name, z in (("EQ", 0), ("NEQ", 1)):
        f = builtin_function(name, 3)
        (count, cover), units = spent_by(min_cover, f, z)
        assert count == len(cover.rectangles) == 5
        assert units == 125_231


def test_min_cover_neq_frozen():
    # value recorded from the exhaustive oracle
    f = builtin_function("NEQ", 2)
    assert brute_min_cover(f, 1) == 4
    assert min_cover(f, 1)[0] == 4
    assert min_cover(builtin_function("NEQ", 3), 1)[0] <= 6  # 2n position cover


def test_min_cover_all_ones():
    f = CommFunction("ones", ("a", "b"), ("c", "d"), ("11", "11"))
    assert min_cover(f, 1)[0] == 1
    with pytest.raises(CcError):
        min_cover(f, 0)


def test_min_disjoint_cover_eq1_frozen():
    f = builtin_function("EQ", 1)
    assert brute_min_disjoint(f) == 4
    count, cover = min_disjoint_cover(f)
    assert count == 4
    validate_disjoint_cover(f, cover)


def test_min_disjoint_cover_constant():
    f = CommFunction("ones", ("a", "b"), ("c", "d"), ("11", "11"))
    assert min_disjoint_cover(f)[0] == 1


def test_min_disjoint_cover_eq2():
    f = builtin_function("EQ", 2)
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count >= 2 ** 2 + 1


def test_min_disjoint_cover_promise_oracle():
    f = builtin_function("PDISJ", 2)
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count == brute_min_disjoint(f)


def test_min_disjoint_cover_deepens_past_the_rank_bound(monkeypatch):
    rows = ("111010", "011100", "110011", "110100", "010110", "010101")
    f = CommFunction("M6", tuple("r%d" % i for i in range(6)),
                     tuple("c%d" % j for j in range(6)), rows)
    # the 1-cells have rank 5 but no partition into 5 rectangles, so the
    # search deepens once; the 0-cells take 5
    assert _rank_q([[int(c) for c in row] for row in rows]) == 5
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count == 11
    assert sum(monochromatic_color(f, r) == 1 for r in cover.rectangles) == 6
    # the work meter stops the search; nothing stands behind it
    with monkeypatch.context() as patch:
        patch.setattr(commcc, "WORK_CAP", 100)
        with pytest.raises(CapError, match="partition search"):
            min_disjoint_cover(f)
        # each color has a meter of its own: the 0-cells take 262 units and
        # the 1-cells 782, so a cap of 782 suffices for both
        patch.setattr(commcc, "WORK_CAP", 782)
        assert min_disjoint_cover(f)[0] == 11
        patch.setattr(commcc, "WORK_CAP", 781)
        with pytest.raises(CapError, match="partition search"):
            min_disjoint_cover(f)

    # every built-in at n <= 3 answers within the meters
    for n in (1, 2, 3):
        for name, kwargs in (("EQ", {}), ("NEQ", {}), ("DISJ", {}), ("LT", {}),
                             ("IP", {"q": 2}), ("IP", {"q": 3})):
            g = builtin_function(name, n, **kwargs)
            count, cover = min_disjoint_cover(g)
            validate_disjoint_cover(g, cover)
            assert count == len(cover.rectangles)
    pinned = {("PDISJ", None): (3, 7, 13), ("PIP2", "TWO_SIDED"): (2, 4, 6),
              ("PIP2", "ZERO_SIDED"): (3, 5, 9)}
    for (name, variant), counts in pinned.items():
        kwargs = {"variant": variant} if variant else {}
        for n, want in zip((1, 2, 3), counts):
            g = builtin_function(name, n, **kwargs)
            count, cover = min_disjoint_cover(g)
            validate_disjoint_cover(g, cover)
            assert count == len(cover.rectangles) == want, (name, variant, n)


def test_promise_disjoint_cover_merges_the_matrix_once(monkeypatch):
    # the fooling numbers come from the merged view the cover already built
    calls = []

    def counted(f):
        calls.append(f)
        return _merged(f)

    monkeypatch.setattr(commcc, "_merged", counted)
    assert min_disjoint_cover(builtin_function("PDISJ", 2))[0] == 7
    assert len(calls) == 1


def test_promise_disjoint_cover_deepens_past_its_bound(monkeypatch):
    # the completion ranks bound this matrix by 7, and no partition meets
    # 7; the search refutes that level and finds 8 at the next
    # (brute_min_disjoint agrees, in about three minutes)
    f = as_function(("1*0**", "*1100", "*0*11", "000*1", "*0101"))
    searches = []
    partitions = commcc._Partitions

    def recorded(*args):
        searches.append(partitions(*args))
        return searches[-1]

    monkeypatch.setattr(commcc, "_Partitions", recorded)
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count == len(cover.rectangles) == 8
    search, = searches
    assert search.bound == 7
    assert search.level(7) is None


def test_promise_optional_search_stops_at_its_cap(monkeypatch):
    # PIP2 TWO_SIDED at n = 3 reaches too many undefined cells to list
    # either color's completions; the optional search meets the fooling
    # bound 6 in 123 and 108 units, and raises CapError past its cap.  The
    # fooling-set cliques before it take 168 and 178 units, so only the
    # optional meters get the cap of 100.
    f = builtin_function("PIP2", 3, variant="TWO_SIDED")
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count == len(cover.rectangles) == 6

    class Capped(commcc._Budget):
        def __init__(self, search, cap=None):
            super().__init__(search, 100 if search == "optional partition" else cap)

    monkeypatch.setattr(commcc, "_Budget", Capped)
    with pytest.raises(CapError, match="optional partition"):
        min_disjoint_cover(f)


@pytest.mark.parametrize("rows, want", [
    ("1*****00,00*1111*,*10*1001,**0*010*,*1**0***,110***1*,011111**", 9),
    ("01*0*11*,1*1*111*,*0010011,11110000,*10***11,0***100*,**0*0*0*,001****1", 9),
    ("*0*1010,**0*11*,1***100,11*000*,1**0*11,1111*1*,01**1*0", 9),
    ("1**10*,11***0,100*01,*11110,1*1*01,*11*10,01***1,1*0*01", 8),
    ("0010001*,01*0*010,*000111*,*1111*00,10*10110,11*01110,1**0**0*", 12),
])
def test_promise_disjoint_cover_deepens_where_the_bound_misses(rows, want):
    # random promise matrices whose least partition is one above the bound
    # the search starts from; the first four have a color whose
    # completions are too many to list
    f = as_function(tuple(rows.split(",")))
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count == len(cover.rectangles) == want == milp_partition_count(f)


def partition_milp(cands, cell_bits, und_bits):
    """Oracle: exact minimum exact-cover of the defined cell bits by
    candidates, with at-most-once use of undefined cells, by HiGHS."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

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
    res = milp(c=np.ones(n_vars), constraints=constraints,
               integrality=np.ones(n_vars), bounds=Bounds(0, 1))
    assert res.status == 0, res.message
    return [cands[v] for v in range(n_vars) if res.x[v] > 0.5]


def milp_partition_count(f):
    """Oracle: the integer program on every closed rectangle."""
    row_groups, col_groups, masks = _merged(f)
    nc = len(col_groups)
    defined = sum((zeros | ones) << (r * nc) for r, (zeros, ones) in enumerate(zip(*masks)))
    undefined = ((1 << (len(row_groups) * nc)) - 1) & ~defined
    cands = []
    for rows_mask, cols_mask, color in _closed_rectangles(masks, nc):
        foot = _cells(rows_mask, cols_mask, nc)
        cands.append((rows_mask, cols_mask, color, foot & defined, foot))
    return len(partition_milp(cands, _mask_to_indices(defined),
                              _mask_to_indices(undefined)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 6, 6))
def test_promise_disjoint_cover_matches_the_integer_program(rows):
    assume(any("*" in row for row in rows))
    f = as_function(rows)
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count == len(cover.rectangles) == milp_partition_count(f)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 8, 8), st.integers(0, 1 << 64), st.integers(0, 12))
def test_greedy_blocked_fooling_is_a_fooling_set(rows, blocked, cap):
    # the partition search's bound for a color whose completions are not
    # listed: 1-cells left, no part may take a 0-cell or a blocked cell
    nr, nc = len(rows), len(rows[0])
    blocked &= (1 << (nr * nc)) - 1
    ones = sum(1 << (i * nc + j) for i, row in enumerate(rows)
               for j, ch in enumerate(row) if ch == "1")
    zeros = sum(1 << (i * nc + j) for i, row in enumerate(rows)
                for j, ch in enumerate(row) if ch == "0")
    left, forbid = ones & ~blocked, zeros | blocked
    found = _greedy_blocked_fooling(left, forbid, nr, nc, cap)
    cells = [divmod(bit, nc) for bit in _mask_to_indices(found)]
    assert found & ~left == 0
    assert len(cells) <= cap + 1

    def crossed(a, b):
        return any(forbid >> (i * nc + j) & 1 for i, j in ((a[0], b[1]), (b[0], a[1])))

    for a, b in itertools.combinations(cells, 2):
        assert crossed(a, b)
    if len(cells) <= cap:
        # a greedy run to the end leaves no cell crossed with every cell taken
        for cell in _mask_to_indices(left & ~found):
            assert not all(crossed(divmod(cell, nc), b) for b in cells)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 8, 8))
def test_completion_ranks_match_the_exact_rank(rows):
    f = as_function(rows)
    nr, nc = f.n_rows, f.n_cols
    ones = sum(1 << (i * nc + j) for i, j in f.z_cells(1))
    extra = [i * nc + j for i, row in enumerate(rows) for j, ch in enumerate(row)
             if ch == "*"][:6]
    ranks = _completion_ranks(ones, extra, nr, nc)
    for subset in range(1 << len(extra)):
        mask = ones | sum(1 << extra[k] for k in _mask_to_indices(subset))
        mat = [[mask >> (i * nc + j) & 1 for j in range(nc)] for i in range(nr)]
        assert ranks[subset] == _rank_q(mat)


def test_partition_search_work_cap(monkeypatch):
    # 12x12 total, distinct rows and columns: the rank-bounded search
    # deepens for minutes without a meter; 200 000 units take about 0.5 s
    rows = ("111011111011", "101111111111", "110111111101", "011111111010",
            "111011111001", "101111111110", "011101110101", "010111111111",
            "101110100110", "111110101011", "111010111111", "111111011111")
    f = CommFunction("M12", tuple("r%d" % i for i in range(12)),
                     tuple("c%d" % j for j in range(12)), rows)
    monkeypatch.setattr(commcc, "WORK_CAP", 200_000)
    # both colors have rank 12, and the depth search's tree has 24 leaves
    assert min_disjoint_cover(f)[0] == 24
    monkeypatch.setattr(commcc, "_rank_tight_leaves", lambda *args: None)
    with pytest.raises(CapError, match="partition search"):
        min_disjoint_cover(f)


def test_cover_and_clique_searches_raise_past_their_node_caps(monkeypatch):
    f = builtin_function("EQ", 3)
    assert min_cover(f, 0)[0] == 5
    assert len(max_fooling_set(f, 0)) == 3
    # on color 0, EQ_3 takes 125 231 cover and 4 372 clique work units;
    # PDISJ_3's depth search takes 358 116
    monkeypatch.setattr(commcc, "WORK_CAP", 1000)
    with pytest.raises(CapError, match="set-cover"):
        min_cover(f, 0)
    with pytest.raises(CapError, match="clique"):
        max_fooling_set(f, 0)
    with pytest.raises(CapError, match="protocol-depth"):
        exact_deterministic_cc(builtin_function("PDISJ", 3))


def test_disjoint_cover_cap():
    with pytest.raises(CapError):
        min_disjoint_cover(builtin_function("EQ", 5))
    # the cap counts distinct rows: U_MINUS_LANG at n = 3 has 18 of its 27,
    # and the candidate walk would allocate 2^18 lists per color
    f = language_problem(builtin_language("U_MINUS_LANG"), 3)
    assert len(_merged(f)[0]) == 18
    with pytest.raises(CapError, match="16x16 distinct rows/columns"):
        min_disjoint_cover(f)


def test_disjoint_cover_work_cap():
    # 16x16 distinct rows and columns: within the size cap, but IP q=3's
    # depth search passes its work cap and its rectangles the candidate cap
    with pytest.raises(CapError, match="partition-candidate"):
        min_disjoint_cover(builtin_function("IP", 4, q=3))


def reference_merged(f):
    """Oracle: ``_merged`` spelled cell by cell on the whole matrix."""
    rows, cols = {}, {}
    for i, row in enumerate(f.rows):
        rows.setdefault(row, []).append(i)
    for j, col in enumerate(zip(*f.rows)):
        cols.setdefault(col, []).append(j)
    reps = [g[0] for g in cols.values()]
    masks = [[sum(1 << c for c, j in enumerate(reps) if row[j] == z)
              for row in rows] for z in "01"]
    return list(rows.values()), list(cols.values()), masks


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(matrices("01*", 8, 8), repeated_matrices("01*", 5, 9)))
def test_merged_matches_the_cellwise_definition(rows):
    f = as_function(rows)
    assert _merged(f) == reference_merged(f)


def test_oracles_on_language_problems_read_the_merged_matrix():
    # each matrix is past a size cap that used to count unmerged rows:
    # Z3_LANG at n = 5 is 32x32 but 3x3 merged, and the n = 4 problems are
    # 81x81 but at most 55x55 merged
    z3 = language_problem(builtin_language("Z3_LANG"), 5)
    assert (z3.n_rows, len(_merged(z3)[0])) == (32, 3)
    count, cover = min_disjoint_cover(z3)
    validate_disjoint_cover(z3, cover)
    assert count == 6
    for name, size in (("U_MINUS_LANG", 22), ("U_PLUS_LANG", 54), ("BA2_LANG", 54)):
        f = language_problem(builtin_language(name), 4)
        assert f.n_rows == 81
        cells = max_fooling_set(f, 1)
        assert len(cells) == size, name
        assert all(f.value(i, j) == 1 for i, j in cells)
    # 128x128 with distinct rows: the clique's meter alone bounds the search
    assert len(max_fooling_set(builtin_function("EQ", 7), 1)) == 128


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 5, 5))
def test_closed_rectangles_match_oracle(rows):
    f = as_function(rows)
    masks = [[sum(1 << j for j in range(f.n_cols) if f.value(i, j) == z)
              for i in range(f.n_rows)] for z in (0, 1)]
    assert _closed_rectangles(masks, f.n_cols) == brute_closed_rectangles(f)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(matrices("01", 16, 16))
def test_rank_matches_fraction_elimination(rows):
    mat = [[int(ch) for ch in row] for row in rows]
    assert _rank_q(mat) == _batch_ranks(np.array([mat]))[0] == fraction_rank(mat)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.one_of(matrices("01", 3, 4), matrices("01*", 3, 4)))
# promise inputs on which a first-cell greedy partition is not optimal; the
# level search meets their fooling bound
@example(("10**", "11*1", "1000"))
@example(("0011", "*101", "*1*1"))
def test_min_disjoint_cover_matches_brute_oracle(rows):
    f = as_function(rows)
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count == len(cover.rectangles) == brute_min_disjoint(f)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(matrices("01", 7, 7), repeated_matrices("01", 5, 7)))
# equal rows share one leaf: each group counts once in the leaf's mask
@example(("10", "10", "01"))
def test_rank_tight_leaves_match_the_partition_search(rows):
    f = as_function(rows)
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    with mock.patch.object(commcc, "_rank_tight_leaves", lambda *args: None):
        assert count == len(cover.rectangles) == min_disjoint_cover(f)[0]


def pairwise_undominated(candidates):
    """Oracle: the dominance filter comparing each candidate with every
    kept one."""
    kept = []
    for cand in candidates:
        if not any(cand[2] & ~other[2] == 0 for other in kept):
            kept.append(cand)
    return kept


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 6, 6), st.sampled_from((0, 1)))
def test_undominated_matches_the_pairwise_filter(rows, z):
    f = as_function(rows)
    assume(f.count(z) > 0)
    seen = []

    def capture(candidates, budget):
        seen.append(candidates)
        return _undominated(candidates, budget)

    with mock.patch.object(commcc, "_undominated", capture):
        min_cover(f, z)
    assume(seen)
    candidates = seen[0]
    assert _undominated(candidates, commcc._Budget("set-cover")) == \
        pairwise_undominated(candidates)


def test_undominated_is_charged_to_the_set_cover_meter(monkeypatch):
    def no_search(*args):
        raise AssertionError("set-cover search reached")

    # the filter alone passes the cap, before the search starts
    monkeypatch.setattr(commcc, "_set_cover_exact", no_search)
    monkeypatch.setattr(commcc, "WORK_CAP", 10)
    with pytest.raises(CapError, match="set-cover"):
        min_cover(builtin_function("PDISJ", 3), 0)


# --- exact deterministic complexity -------------------------------------------

def test_exact_cc_eq():
    for n in (1, 2, 3):
        f = builtin_function("EQ", n)
        bits, tree = exact_deterministic_cc(f)
        assert bits == n + 1
        assert len(tree.leaves()) <= 2 ** bits
        for leaf in tree.leaves():
            rect = Rectangle(leaf.rows, leaf.cols)
            assert monochromatic_color(f, rect, vacuous=leaf.color) == leaf.color


def test_exact_cc_constant():
    f = CommFunction("ones", ("a", "b"), ("c", "d"), ("11", "11"))
    assert exact_deterministic_cc(f)[0] == 0


def test_exact_cc_cap():
    # the depth search has no size cap: 16x16 IP q=3 (root rank bound 5)
    # runs past its work cap
    with pytest.raises(CapError, match="protocol-depth"):
        exact_deterministic_cc(builtin_function("IP", 4, q=3))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
# the second strategy repeats rows and columns, so the search, which runs on
# the merged matrix, is checked against the rule on the unmerged one
@given(st.one_of(matrices("01*", 5, 5), repeated_matrices("01*", 5, 7)))
def test_exact_cc_matches_rule_oracle(rows):
    f = as_function(rows)
    everything = (tuple(range(f.n_rows)), tuple(range(f.n_cols)))
    assert exact_deterministic_cc(f) == rule_protocol_tree(f, *everything)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01", 4, 4))
def test_exact_cc_matches_rule_oracle_on_total_matrices(rows):
    # every rectangle is all-defined, so each node may stop at its rank bound
    f = as_function(rows)
    everything = (tuple(range(f.n_rows)), tuple(range(f.n_cols)))
    assert exact_deterministic_cc(f) == rule_protocol_tree(f, *everything)


def subtrees(node):
    yield node
    for child in node.children:
        yield from subtrees(child)


def height(node):
    return 1 + max(map(height, node.children)) if node.children else 0


@pytest.mark.parametrize("rows", [
    ("000", "0*0", "001", "100"),
    builtin_function("PDISJ", 2).rows,
    builtin_function("PIP2", 2, variant="TWO_SIDED").rows,
    builtin_function("PIP2", 2, variant="ZERO_SIDED").rows,
])
def test_cutoff_bounds_stay_out_of_the_tree(rows):
    # a split's children are solved only below the best depth so far, and
    # the memo keeps the lower bounds such calls return; none may pass for
    # a depth: every subtree is the rule's tree of its rectangle, and a
    # second call in the same process gives the same tree
    f = as_function(rows)
    bits, tree = exact_deterministic_cc(f)
    assert exact_deterministic_cc(f) == (bits, tree)
    for node in subtrees(tree):
        assert rule_protocol_tree(f, node.rows, node.cols) == (height(node), node)


@pytest.mark.parametrize("name, variant, bits", [
    ("PDISJ", "TWO_SIDED", 4), ("PIP2", "TWO_SIDED", 3),
])
def test_cutoff_tree_is_as_tall_as_its_depth(name, variant, bits):
    # past the rule oracle's reach: a bound taken for a depth would print a
    # depth below the height of the tree built from the same memo
    got, tree = exact_deterministic_cc(builtin_function(name, 3, variant=variant))
    assert got == height(tree) == bits


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.one_of(matrices("01*", 6, 6), repeated_matrices("01*", 4, 6)), st.data())
def test_shallow_depth_matches_the_rule_oracle(rows, data):
    # the closed form that answers every depth query below limit 3 is the
    # rule's depth capped at 2, on sampled rectangles of any shape
    f = as_function(rows)
    masks = [[sum(1 << j for j, ch in enumerate(row) if ch == z) for row in rows]
             for z in "01"]
    rects = data.draw(st.lists(st.tuples(st.integers(1, (1 << f.n_rows) - 1),
                                         st.integers(1, (1 << f.n_cols) - 1)),
                               min_size=1, max_size=12))
    for row_mask, col_mask in rects:
        depth = rule_protocol_tree(f, _mask_to_indices(row_mask),
                                   _mask_to_indices(col_mask))[0]
        assert shallow_depth(masks, row_mask, col_mask) == min(2, depth)


def test_shallow_depth_keeps_the_depth_search_small(monkeypatch):
    # PIP2 TWO_SIDED at n = 3 spends 16 706 units; it spent 759 529 when
    # each depth <= 1 query took a canonical form and a split search
    monkeypatch.setattr(commcc, "WORK_CAP", 20_000)
    f = builtin_function("PIP2", 3, variant="TWO_SIDED")
    assert exact_deterministic_cc(f)[0] == 3


def shallow_depth(masks, rows, cols):
    """min(2, depth) of the rectangle ``rows`` x ``cols`` (masks), read off
    ``masks[z][i]``, the columns with a defined z in row i: 0 when at most
    one defined color occurs, 1 when both do and either no row or no column
    holds both, else 2.  Undefined cells side with either color, so a split
    of the rows (columns) into two monochromatic parts exists exactly when
    every row (column) is monochromatic.  The closed form that the depth
    search reads off its split tables."""
    zeros, ones = masks
    any0 = any1 = 0
    mixed_row = False
    while rows:
        low = rows & -rows
        i = low.bit_length() - 1
        rows ^= low
        m0, m1 = zeros[i] & cols, ones[i] & cols
        any0 |= m0
        any1 |= m1
        if m0 and m1:
            mixed_row = True
    if not (any0 and any1):
        return 0
    return 2 if mixed_row and any0 & any1 else 1


def greedy_fooling(where, row_idx, cols):
    """For each color z, the z-cells of the rectangle ``row_idx`` x
    ``cols`` (a column mask) taken in row order whenever a defined 1-z
    cross cell separates the cell from every cell taken before: a list of
    (row, column bit) pairs per color.  ``where[z][i]`` holds the columns
    with a defined z in row i.  Two z-cells of one row are never separated,
    so each row gives at most one cell, its first free column.  The
    per-row reference for the depth search's fooling bound."""
    out = []
    for z in (0, 1):
        other = where[1 - z]
        taken = []
        for i in row_idx:
            free = where[z][i] & cols
            for k, bit in taken:
                if not other[i] & bit:
                    free &= other[k]
            if free:
                taken.append((i, free & -free))
        out.append(taken)
    return out


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 8, 8), st.data())
def test_depth_fooling_bound_is_the_per_row_greedy(rows, data):
    # on flat cell bits, the depth search's bound takes, color by color,
    # the cells the per-row greedy takes on any rectangle
    nr, nc = len(rows), len(rows[0])
    where = [[sum(1 << j for j, ch in enumerate(row) if ch == z) for row in rows]
             for z in "01"]
    cells = [sum(mask << (i * nc) for i, mask in enumerate(where[z])) for z in (0, 1)]
    row_mask = data.draw(st.integers(1, (1 << nr) - 1))
    col_mask = data.draw(st.integers(1, (1 << nc) - 1))
    rect = _cells(row_mask, col_mask, nc)
    for z, taken in enumerate(greedy_fooling(where, _mask_to_indices(row_mask), col_mask)):
        want = sum(bit << (i * nc) for i, bit in taken)
        assert _greedy_blocked_fooling(rect & cells[z], cells[1 - z], nr, nc, nr * nc) == want


def reference_protocol_tree(row_groups, col_groups, masks):
    """Reference for ``commcc._protocol_tree``: the same search with every
    child of a split answered by a ``solve`` call, closed-form depths
    included, and each pick's parts built group by group."""
    nr, nc = len(row_groups), len(col_groups)
    # base[r][c]: the merged cell as -1 (undefined), 0 or 1
    base = [tuple(0 if zeros >> c & 1 else 1 if ones >> c & 1 else -1 for c in range(nc))
            for zeros, ones in zip(*masks)]
    memo = {}  # canonical content -> [depth or lower bound, exact]
    by_rect = {}  # rows mask << nc | cols mask -> its memo entry
    budget = commcc._Budget("protocol-depth")
    no_limit = 10 ** 9

    def colors(row_idx, cols):
        return [z for z in (0, 1) if any(masks[z][i] & cols for i in row_idx)]

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
        if not shallow_depth(masks, rows, cols):
            return 0, None
        if any(cols & ~(masks[0][i] | masks[1][i]) for i in row_idx):
            budget.charge(2 * r * c)
            leaves = sum(map(len, greedy_fooling(masks, row_idx, cols)))
        else:
            budget.charge(4 * r * c * min(r, c))
            leaves = sum(commcc._rank_q([[base[i][j] == z for j in col_idx] for i in row_idx])
                         for z in (0, 1))
        lb = max(1, commcc._log2ceil(leaves))
        if lb >= limit:
            return lb, None
        best, split = limit, None
        for side in ("rows", "cols"):
            groups = {}
            for x in (row_idx if side == "rows" else col_idx):
                key = tuple(base[x][j] for j in col_idx) if side == "rows" \
                    else tuple(base[i][x] for i in row_idx)
                groups[key] = groups.get(key, 0) | 1 << x
            group_masks = [groups[key] for key in sorted(groups)]
            count = len(group_masks)
            # part_a holds group 0; every proper complement appears once
            for pick in range((1 << (count - 1)) - 1):
                budget.charge(count)
                part_a, part_b = group_masks[0], 0
                for k in range(1, count):
                    if pick >> (k - 1) & 1:
                        part_a |= group_masks[k]
                    else:
                        part_b |= group_masks[k]
                if side == "rows":
                    parts = ((part_a, cols), (part_b, cols))
                else:
                    parts = ((rows, part_a), (rows, part_b))
                d1 = solve(*parts[0], best - 1)
                if d1 + 1 >= best:
                    continue
                d = 1 + max(d1, solve(*parts[1], best - 1))
                if d < best:
                    best, split = d, (side, parts)
                    if best <= lb:
                        return best, split
        return best, split

    def solve(rows, cols, limit=no_limit):
        """best_split's depth or bound, memoized by canonical content; below
        limit 3, the closed form of ``shallow_depth``."""
        if limit <= 2:
            budget.charge(rows.bit_count())
            return shallow_depth(masks, rows, cols)
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
        row_idx, col_idx = commcc._expand(row_groups, rows), commcc._expand(col_groups, cols)
        _, split = best_split(rows, cols)
        if split is None:
            leaves.append((rows, cols))
            return ProtocolNode(row_idx, col_idx,
                                color=min(colors(_mask_to_indices(rows), cols)))
        side, parts = split
        return ProtocolNode(row_idx, col_idx, split=side,
                            children=tuple(walk(*part) for part in parts))

    full_rows, full_cols = (1 << nr) - 1, (1 << nc) - 1
    return solve(full_rows, full_cols), walk(full_rows, full_cols), leaves


def spent_by(search, *args):
    """search(*args) and the units its last work meter spent."""
    budgets = []

    class Recorded(commcc._Budget):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            budgets.append(self)

    with mock.patch.object(commcc, "_Budget", Recorded):
        out = search(*args)
    return out, budgets[-1].spent


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 8, 8))
def test_split_tables_match_a_solve_call_per_pick(rows):
    # the closed-form depths read off the per-group half tables give the
    # tree, leaves and units of a search that calls solve for every child,
    # and, on a meter capped at those units, the same answer; one unit less
    # refuses, on the search whose tables then cover only the picks the
    # meter allows
    merged = _merged(as_function(rows))
    want, units = spent_by(reference_protocol_tree, *merged)
    assert spent_by(commcc._protocol_tree, *merged) == (want, units)
    with mock.patch.object(commcc, "WORK_CAP", units):
        assert commcc._protocol_tree(*merged) == want
    with mock.patch.object(commcc, "WORK_CAP", units - 1):
        with pytest.raises(CapError):
            commcc._protocol_tree(*merged)
    if len(rows) * len(rows[0]) <= 25:
        f = as_function(rows)
        everything = (tuple(range(f.n_rows)), tuple(range(f.n_cols)))
        assert want[:2] == rule_protocol_tree(f, *everything)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63), st.booleans(),
                          st.integers(0, 9)), min_size=1, max_size=9), st.data())
def test_split_tables_summarise_every_pick(groups, data):
    # the two half tables give each pick below 2^bits, with the groups
    # past bits in part b (whose mask the search takes as a complement)
    groups = [(1 << k, x0, x1, mixed, n) for k, (x0, x1, mixed, n) in enumerate(groups)]
    bits = data.draw(st.integers(0, len(groups) - 1))
    low, high = _split_tables(groups, bits)
    got, want = [], []
    for pick in range(min(1 << bits, (1 << (len(groups) - 1)) - 1)):
        entry_l, entry_h = low[pick % len(low)], high[pick // len(low)]
        got.append(tuple(x | y for x, y in zip(entry_l[:7], entry_h[:7]))
                   + (entry_l[7] + entry_h[7], entry_l[8] + entry_h[8]))
        parts = ([], [])
        for k, group in enumerate(groups):
            parts[k > 0 and not (k <= bits and pick >> (k - 1) & 1)].append(group)
        a, b = ([functools.reduce(operator.or_, (g[i] for g in part), 0) for i in range(4)]
                + [sum(g[4] for g in part)] for part in parts)
        want.append((a[0], a[1], a[2], a[3], b[1], b[2], b[3], a[4], b[4]))
    assert got == want


@pytest.mark.parametrize("name, n, kwargs, units", [
    ("PDISJ", 3, {}, 358_116),
    ("PIP2", 3, {"variant": "TWO_SIDED"}, 16_706),
    ("PIP2", 3, {"variant": "ZERO_SIDED"}, 404_139),
    ("DISJ", 4, {}, 1_439_209),
    ("IP", 4, {"q": 2}, 301_670),
])
def test_depth_search_units_are_pinned(name, n, kwargs, units):
    f = builtin_function(name, n, **kwargs)
    merged = _merged(f)
    want = spent_by(reference_protocol_tree, *merged)
    assert spent_by(exact_deterministic_cc, f) == (want[0][:2], units)
    assert want[1] == units


@pytest.mark.parametrize("name, kwargs", [
    ("PDISJ", {}), ("PIP2", {"variant": "ZERO_SIDED"}), ("DISJ", {}),
])
def test_depth_search_refuses_below_its_units(name, kwargs, monkeypatch):
    # a split's tables cover only the picks the meter has left; a pick
    # past them must never be reached, so every cap below the units a
    # search spends refuses it, and that many answer
    f = builtin_function(name, 2, **kwargs)
    want, units = spent_by(exact_deterministic_cc, f)
    for cap in range(units):
        monkeypatch.setattr(commcc, "WORK_CAP", cap)
        with pytest.raises(CapError, match="protocol-depth"):
            exact_deterministic_cc(f)
    monkeypatch.setattr(commcc, "WORK_CAP", units)
    assert exact_deterministic_cc(f) == want


def test_depth_search_charges_the_root_before_reading_a_cell(monkeypatch):
    # a matrix past the cap is refused before base, one entry per merged
    # cell, is built: the root's nr x nc is charged before any cell is read
    f = builtin_function("EQ", 3)
    row_groups, col_groups, masks = _merged(f)

    class Unread:
        def __getitem__(self, z):
            raise AssertionError("a cell was read before the root was charged")

        def __iter__(self):
            raise AssertionError("a cell was read before the root was charged")

    monkeypatch.setattr(commcc, "_merged", lambda g: (row_groups, col_groups, Unread()))
    monkeypatch.setattr(commcc, "WORK_CAP", 8 * 8 - 1)
    with pytest.raises(CapError, match="protocol-depth"):
        exact_deterministic_cc(f)
    monkeypatch.setattr(commcc, "WORK_CAP", 8 * 8)
    with pytest.raises(AssertionError, match="before the root was charged"):
        exact_deterministic_cc(f)


def rank_depth_bound(rows):
    """max(1, log2 of rank(1-cells) + rank(0-cells)) on a non-constant total
    matrix: its protocol tree has at least that many leaves."""
    leaves = sum(_rank_q([[int(ch == z) for ch in row] for row in rows]) for z in "01")
    return max(1, log2ceil(leaves))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(matrices("01", 6, 6))
def test_rank_bound_is_at_most_the_depth(rows):
    depth = exact_deterministic_cc(as_function(rows))[0]
    if len({ch for row in rows for ch in row}) == 2:
        assert rank_depth_bound(rows) <= depth
    else:
        assert depth == 0


def test_rank_bound_skips_rectangles_with_wildcards():
    # one row split separates the 1s from the 0s; with the * cells left out
    # of both colors, ranks 3 + 1 would give a bound of 2, and the search
    # would stop at the first split of depth 2
    rows = ("1**", "*1*", "**1", "000")
    f = as_function(rows)
    assert rank_depth_bound(rows) == 2
    everything = (tuple(range(f.n_rows)), tuple(range(f.n_cols)))
    bits, tree = exact_deterministic_cc(f)
    assert bits == 1
    assert (bits, tree) == rule_protocol_tree(f, *everything)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 6, 6))
def test_fooling_bound_is_at_most_the_depth(rows):
    # the depth search's bound on a rectangle with wildcards: per color,
    # cells pairwise separated by a defined cross cell of the other color,
    # so no two share a leaf and they number at most 2^D
    f = as_function(rows)
    nc = f.n_cols
    cells = [sum(1 << (i * nc + j) for i, j in f.z_cells(z)) for z in (0, 1)]
    taken = [[divmod(bit, nc) for bit in _mask_to_indices(
        _greedy_blocked_fooling(cells[z], cells[1 - z], f.n_rows, nc, f.n_rows * nc))]
        for z in (0, 1)]
    for z, picked in enumerate(taken):
        assert all(f.value(i, j) == z for i, j in picked)
        for (i1, j1), (i2, j2) in itertools.combinations(picked, 2):
            assert 1 - z in (f.value(i1, j2), f.value(i2, j1))
    assert sum(map(len, taken)) <= 2 ** exact_deterministic_cc(f)[0]


def test_promise_monotonicity():
    # PDISJ is DISJ with cells knocked out; neither covers nor protocol
    # depth may grow
    for n in (2, 3):
        total = builtin_function("DISJ", n)
        promise = builtin_function("PDISJ", n)
        assert min_cover(promise, 1)[0] <= min_cover(total, 1)[0]
        assert min_cover(promise, 0)[0] <= min_cover(total, 0)[0]
        assert exact_deterministic_cc(promise)[0] <= exact_deterministic_cc(total)[0]


# --- fooling sets --------------------------------------------------------------

@pytest.mark.parametrize("name", ["EQ", "LT"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fooling_eq_lt(name, n):
    f = builtin_function(name, n)
    assert len(max_fooling_set(f, 1)) == 2 ** n


def test_fooling_all_ones():
    f = CommFunction("ones", ("a", "b"), ("c", "d"), ("11", "11"))
    assert len(max_fooling_set(f, 1)) == 1


def test_fooling_matches_brute_oracle():
    for name, n, z in (("EQ", 2, 0), ("DISJ", 2, 1), ("PDISJ", 2, 0),
                       ("NEQ", 2, 1), ("LT", 2, 0)):
        f = builtin_function(name, n)
        assert len(max_fooling_set(f, z)) == brute_max_fooling(f, z), (name, n, z)


def test_fooling_graph_is_charged_to_the_clique_meter(monkeypatch):
    # EQ_3's 56 zero-cells make 1540 pairs, all charged before any cell is
    # listed: one unit short of them, no cell is listed and no adjacency
    # mask built
    def no_search(*args):
        raise AssertionError("the clique search was reached")

    def no_listing(*args):
        raise AssertionError("a cell was listed")

    monkeypatch.setattr(commcc, "_max_clique", no_search)
    monkeypatch.setattr(commcc, "WORK_CAP", 54)
    with pytest.raises(CapError, match="fooling-set"):
        max_fooling_set(builtin_function("EQ", 3), 0)
    monkeypatch.setattr(commcc, "_mask_to_indices", no_listing)
    monkeypatch.setattr(commcc, "WORK_CAP", 1539)
    with pytest.raises(CapError, match="fooling-set clique"):
        max_fooling_set(builtin_function("EQ", 3), 0)


def test_clique_colorings_are_charged(monkeypatch):
    # EQ's 1-cells form a complete graph, whose coloring of p vertices tries
    # about p^2/2 classes: EQ_7 takes 374 144 units, and EQ_10 passes
    # WORK_CAP about a dozen frames into its branch of 1024, which nested
    # past the interpreter's recursion limit while only nodes were charged
    with pytest.raises(CapError, match="fooling-set clique"):
        max_fooling_set(builtin_function("EQ", 10), 1)
    monkeypatch.setattr(commcc, "WORK_CAP", 374_143)
    with pytest.raises(CapError, match="fooling-set clique"):
        max_fooling_set(builtin_function("EQ", 7), 1)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 4, 4), st.sampled_from((0, 1)))
def test_max_fooling_set_matches_brute_oracle_on_random_matrices(rows, z):
    f = as_function(rows)
    cells = max_fooling_set(f, z)
    assert len(cells) == brute_max_fooling(f, z)
    assert all(f.value(x, y) == z for x, y in cells)
    for (x1, y1), (x2, y2) in itertools.combinations(cells, 2):
        assert f.value(x1, y2) == 1 - z or f.value(x2, y1) == 1 - z


def test_fooling_set_is_valid():
    f = builtin_function("DISJ", 3)
    cells = max_fooling_set(f, 1)
    for (x1, y1), (x2, y2) in itertools.combinations(cells, 2):
        assert f.value(x1, y2) == 0 or f.value(x2, y1) == 0


# --- rectangle measures ---------------------------------------------------------

def test_measure_single_cell():
    f = builtin_function("EQ", 1)
    mu = RectangleMeasure.from_dict({(0, 0): 7})
    assert max_rectangle_measure(f, 1, mu) == 7


def test_measure_negative_rejected():
    with pytest.raises(CcError):
        RectangleMeasure.from_dict({(0, 0): -1})


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 4, 4), st.data())
def test_rectangle_measure_matches_brute_maximum(rows, data):
    f = as_function(rows)
    weight = st.integers(0, 9)
    mu = RectangleMeasure.from_dict(
        {(i, j): data.draw(weight) for i in range(f.n_rows) for j in range(f.n_cols)})
    weights = mu.as_dict()
    for z in (0, 1):
        brute = max((sum(weights[cell] for cell in r.cells()) for r in all_rects(f)
                     if all(f.value(i, j) != 1 - z for i, j in r.cells())), default=0)
        assert max_rectangle_measure(f, z, mu) == brute


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_disj_rectangle_mass(n):
    f = builtin_function("DISJ", n)
    mu = RectangleMeasure.indicator(f, 1)
    assert mu.total() == 3 ** n
    assert max_rectangle_measure(f, 1, mu) == 2 ** n


def test_rectangle_size_bound_for_covers():
    # count / max-mass lower-bounds the cover number, for several measures
    for name, n in (("DISJ", 2), ("DISJ", 3), ("EQ", 2), ("IP", 2)):
        f = builtin_function(name, n, q=2) if name == "IP" else builtin_function(name, n)
        for z in (0, 1):
            if not f.count(z):
                continue
            mu = RectangleMeasure.indicator(f, z)
            s = max_rectangle_measure(f, z, mu)
            need = -(-mu.total() // s)
            assert min_cover(f, z)[0] >= need


# --- protocol simulation ---------------------------------------------------------

def test_simulate_cover_protocol_eq2():
    f = builtin_function("EQ", 2)
    cd, cover = min_disjoint_cover(f)
    bound = (log2ceil(cd) + 2) * (log2ceil(cd) + 1)
    for x in range(4):
        for y in range(4):
            answer, bits = simulate_cover_protocol(f, cover, x, y)
            assert answer == f.value(x, y)
            assert bits <= bound


def test_simulate_cover_protocol_constant():
    f = CommFunction("ones", ("a", "b"), ("c", "d"), ("11", "11"))
    _, cover = min_disjoint_cover(f)
    answer, bits = simulate_cover_protocol(f, cover, 0, 1)
    assert answer == 1 and bits == 1


def test_simulate_rejects_invalid_cover():
    f = builtin_function("EQ", 1)
    bad = Cover(None, (Rectangle((0, 1), (0, 1)),))
    with pytest.raises(CcError):
        simulate_cover_protocol(f, bad, 0, 0)
    not_covering = Cover(None, (Rectangle((0,), (0,)),))
    with pytest.raises(CcError):
        simulate_cover_protocol(f, not_covering, 0, 0)


def test_simulate_promise_inputs():
    f = builtin_function("PDISJ", 2)
    _, cover = min_disjoint_cover(f)
    for i in range(4):
        for j in range(4):
            v = f.value(i, j)
            answer, _ = simulate_cover_protocol(f, cover, i, j)
            if v is not None:
                assert answer == v


# --- reports ----------------------------------------------------------------------

def test_format_indices():
    assert format_indices([0, 1, 2, 5]) == "0-2,5"
    assert format_indices([3]) == "3"
    assert format_indices([]) == ""


def test_serialize_function_round_shape():
    f = builtin_function("PDISJ", 1)
    text = serialize_function(f)
    assert "name: PDISJ" in text
    assert "matrix:" in text
    assert text.strip().splitlines()[-2:] == ["11", "10"]


def test_serialize_cover():
    f = builtin_function("EQ", 1)
    count, cover = min_cover(f, 1)
    text = serialize_cover(f, count, cover)
    assert text.startswith("count: 2\ncolor: 1\n")
    assert text.count("rect:") == 2
