import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regcc import commcc
from regcc.automata import CapError, CcError, builtin_language
from regcc.commcc import (
    CommFunction, Cover, ProtocolNode, Rectangle, RectangleMeasure,
    builtin_function, exact_deterministic_cc, format_indices,
    language_problem, language_problem_partition, max_fooling_set,
    max_rectangle_measure, min_cover, min_disjoint_cover, monochromatic_color,
    monoid_problem, serialize_cover, serialize_function,
    simulate_cover_protocol, validate_disjoint_cover,
)
from regcc.commcc import (
    _closed_rectangles, _concepts, _mask_to_indices, _merged, _rank_q, _undominated,
)
from regcc.monoid import (
    FiniteMonoid, OrderedMonoid, ideal_generated, syntactic_ordered_monoid,
)


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


def reference_set_cover(universe, candidates):
    """Oracle: the minimum-cover branch and bound with one global bound,
    ceil(|uncovered| / largest candidate), for every node.  Its branching
    cell, candidate order and strict-improvement incumbent rule are those
    of ``commcc._set_cover_exact``, so the two return the same cover."""
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

    def capture(universe, candidates):
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


def as_function(rows):
    return CommFunction("random", tuple("r%d" % i for i in range(len(rows))),
                        tuple("c%d" % j for j in range(len(rows[0]))), rows)


def rule_protocol_tree(f, rows, cols):
    """Oracle: the depth and tree of ``exact_deterministic_cc``'s stated rule,
    unmemoized.  Splits run rows before columns over groups of equal rows
    (columns) sorted by content; group 0 plus the groups picked by the bits
    of a counter form one side.  A node takes the first split whose worst
    child is least; a leaf takes the least defined color."""
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
    assert _undominated(candidates) == candidates


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
    # past the node cap each color falls back to the integer program
    calls = []
    milp = commcc._partition_milp
    monkeypatch.setattr(commcc, "PARTITION_NODE_CAP", 0)
    monkeypatch.setattr(commcc, "_partition_milp",
                        lambda *args: calls.append(args) or milp(*args))
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert (count, len(calls)) == (11, 2)


def test_cover_and_clique_searches_raise_past_their_node_caps(monkeypatch):
    f = builtin_function("EQ", 3)
    assert min_cover(f, 0)[0] == 5
    assert len(max_fooling_set(f, 0)) == 3
    # on color 0, EQ_3 takes 1 081 532 cover and 2 128 clique work units;
    # PDISJ_3's depth search takes 2 709 383
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


def test_disjoint_cover_work_cap():
    # 16x16 distinct rows and columns: within the size cap, but NEQ's
    # 1-rectangles number about 3^16, past the candidate cap
    with pytest.raises(CapError):
        min_disjoint_cover(builtin_function("NEQ", 4))


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
    assert _rank_q(mat) == fraction_rank(mat)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.one_of(matrices("01", 3, 4), matrices("01*", 3, 4)))
# promise inputs whose greedy partition is not optimal: the integer program decides
@example(("10**", "11*1", "1000"))
@example(("0011", "*101", "*1*1"))
def test_min_disjoint_cover_matches_brute_oracle(rows):
    f = as_function(rows)
    count, cover = min_disjoint_cover(f)
    validate_disjoint_cover(f, cover)
    assert count == len(cover.rectangles) == brute_min_disjoint(f)


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


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrices("01*", 4, 4))
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
