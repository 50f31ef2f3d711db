"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
inline).  All tolerances are exact; the asymptotic statements behind them
are exercised through the property checks and the small-size growth
criteria below.
"""

import hashlib
import io
import itertools
from contextlib import contextmanager, redirect_stdout

from regcc.automata import CapError, Dfa, builtin_language
from regcc.classify import builtin_monoid, classify_nondet, verify_certificate
from regcc.cli import main
from regcc.commcc import (
    Rectangle, RectangleMeasure, builtin_function, exact_deterministic_cc,
    max_fooling_set, max_rectangle_measure, min_cover, min_disjoint_cover,
    monochromatic_color, monoid_problem, serialize_cover, serialize_tree,
    simulate_cover_protocol, validate_disjoint_cover,
)
from regcc.monoid import eval_word, ideal_generated, syntactic_ordered_monoid
from regcc.reductions import (
    builtin_reduction, encode_monoid_as_language,
    search_local_reduction_nonexistence, verify_reduction,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print("criterion %02d  %-52s FAIL" % (number, title))
        raise
    print("criterion %02d  %-52s PASS" % (number, title))


def log2ceil(k):
    return (k - 1).bit_length() if k > 1 else 0


def cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0
    return buffer.getvalue()


def test_criterion_01_exact_deterministic_eq():
    with criterion(1, "D(EQ_N) = N+1 for N in 1..3"):
        for n in (1, 2, 3):
            out = cli("cc", "exact", "EQ", "--n", str(n))
            assert "bits: %d" % (n + 1) in out
            assert exact_deterministic_cc(builtin_function("EQ", n))[0] == n + 1


def test_criterion_02_cover_counts_eq():
    with criterion(2, "C1(EQ_N) = 2^N; C^D(EQ_N) >= 2^N + 1"):
        for n in (1, 2, 3):
            assert min_cover(builtin_function("EQ", n), 1)[0] == 2 ** n
        for n in (1, 2):
            assert min_disjoint_cover(builtin_function("EQ", n))[0] >= 2 ** n + 1


def test_criterion_03_disj_counting():
    with criterion(3, "DISJ 1-cells = 3^N (N<=12); max 1-rect mass = 2^N (N<=4)"):
        for n in range(1, 13):
            assert builtin_function("DISJ", n).count(1) == 3 ** n
        for n in (1, 2, 3, 4):
            f = builtin_function("DISJ", n)
            mu = RectangleMeasure.indicator(f, 1)
            assert max_rectangle_measure(f, 1, mu) == 2 ** n


def test_criterion_04_fooling_sets():
    with criterion(4, "fooling(EQ_N) = fooling(LT_N) = 2^N for N<=3"):
        for name in ("EQ", "LT"):
            for n in (1, 2, 3):
                f = builtin_function(name, n)
                assert len(max_fooling_set(f, 1)) == 2 ** n


def test_criterion_05_cover_protocol_simulation():
    with criterion(5, "cover protocol exact on EQ_2, bits within bound"):
        f = builtin_function("EQ", 2)
        count, cover = min_disjoint_cover(f)
        validate_disjoint_cover(f, cover)
        bound = (log2ceil(count) + 2) * (log2ceil(count) + 1)
        for x in range(4):
            for y in range(4):
                answer, bits = simulate_cover_protocol(f, cover, x, y)
                assert answer == f.value(x, y)
                assert bits <= bound


def _builtins_at(n):
    yield builtin_function("EQ", n)
    yield builtin_function("NEQ", n)
    yield builtin_function("DISJ", n)
    yield builtin_function("LT", n)
    yield builtin_function("PDISJ", n)
    yield builtin_function("IP", n, q=2)
    yield builtin_function("IP", n, q=3)
    yield builtin_function("PIP2", n, variant="TWO_SIDED")
    yield builtin_function("PIP2", n, variant="ZERO_SIDED")


def test_criterion_06_sandwich_inequalities():
    with criterion(6, "fooling <= C^z <= C^D; D vs log C^D and cover product"):
        trees = hashlib.sha256()
        disjoint_covers = hashlib.sha256()
        min_covers = hashlib.sha256()
        fooling_sets = hashlib.sha256()
        for n in (1, 2, 3):
            for f in _builtins_at(n):
                d, tree = exact_deterministic_cc(f)
                trees.update(serialize_tree(tree).encode())
                cd, cover = min_disjoint_cover(f)
                validate_disjoint_cover(f, cover)
                disjoint_covers.update(serialize_cover(f, cd, cover).encode())
                covers = {}
                for z in (0, 1):
                    if f.count(z) == 0:
                        continue
                    covers[z], cover = min_cover(f, z)
                    min_covers.update(serialize_cover(f, covers[z], cover).encode())
                    fooling = max_fooling_set(f, z)
                    fooling_sets.update(repr(fooling).encode())
                    assert len(fooling) <= covers[z] <= cd, (f.name, n, z)
                assert d >= log2ceil(cd), (f.name, n)
                assert 2 ** d >= len(tree.leaves())
                if 0 in covers and 1 in covers:
                    bound = (log2ceil(covers[0]) + 2) * (log2ceil(covers[1]) + 2)
                    assert d <= bound, (f.name, n)
        # the protocol trees of all 27 functions, pinned byte for byte
        assert trees.hexdigest() == \
            "0563eb2321cfce8cfefa7480ac81e544235abc2510d584a02c02465a370a50d4"
        # and their minimum disjoint covers: on total inputs the sorted
        # leaves of the protocol tree when that tree is rank-tight, else
        # the first partition of the level search; on promise inputs the
        # first partition that the level search meets at the completion-rank
        # bound, so no solver decides a printed cover
        assert disjoint_covers.hexdigest() == \
            "f2cbd94008c16557edfa84ea25308973895210251ebc0850342611aa2a7f5ea7"
        # the minimum covers of each color and the maximum fooling cells
        assert min_covers.hexdigest() == \
            "1456b820dafc94a70ba90beb4a55e287c68884c52615ec5bb0cebf6fa93abaf0"
        assert fooling_sets.hexdigest() == \
            "a3d436d428b40d37f8446ecddd4e66b6c65eeb355577019c624846d100392ecd"


def test_criterion_07_ba2_plus_structure():
    with criterion(7, "BA2+ has 6 elements, the stated relations, top aa"):
        om, _ = builtin_monoid("BA2_PLUS")
        m = om.monoid
        assert m.size == 6
        ev = lambda w: eval_word(m, w)
        assert ev("aa") == ev("bb")
        assert ev("aab") == ev("aa")
        assert ev("aba") == ev("a")
        assert ev("bab") == ev("b")
        assert all(om.leq(x, ev("aa")) for x in range(m.size))


def test_criterion_08_classification():
    with criterion(8, "classification tiers and pinned witnesses"):
        assert classify_nondet(builtin_language("Z3_LANG")).tier == "CONSTANT"

        r = classify_nondet(builtin_language("BA2_LANG"))
        assert r.tier == "LINEAR_LOWER"
        assert dict(r.certificate("shuffle").data) == \
            {"u": "ab", "w1": "a", "w2": "b", "v": "ba"}

        assert classify_nondet(builtin_language("U_PLUS_LANG")).tier == "LINEAR_LOWER"

        om, _ = builtin_monoid("S3")
        r = classify_nondet(om)
        assert r.tier == "LINEAR_LOWER"
        assert r.certificate("nonabelian_subgroup") is not None

        om, _ = builtin_monoid("TQ_EXAMPLE", q=3)
        r = classify_nondet(om)
        assert r.tier == "LINEAR_LOWER"
        assert r.certificate("tq").get("q") == 3

        l5 = builtin_language("L5")
        om_l5, _, _ = syntactic_ordered_monoid(l5)
        r = classify_nondet(om_l5)
        assert r.tier == "UNRESOLVED_GAP"
        assert dict(r.certificate("polcom_exclusion").data) == \
            {"u": "abab", "v": "bbaa"}
        for result_om, result in ((om_l5, r),):
            for cert in result.certificates:
                assert verify_certificate(result_om, cert)


def test_criterion_09_group_order_triviality():
    with criterion(9, "syntactic order of group languages is equality"):
        group_dfas = [
            builtin_language("Z3_LANG"),
            # words acting as the identity permutation of three states
            Dfa.make("ab", 3, 0, {0}, {"a": [1, 0, 2], "b": [2, 1, 0]}),
            # parity of word length
            Dfa.make("a", 2, 0, {0}, {"a": [1, 0]}),
        ]
        for d in group_dfas:
            om, _, _ = syntactic_ordered_monoid(d)
            from regcc.monoid import check_property
            assert check_property(om, "group")[0]
            assert om.order.is_equality()


def test_criterion_10_reductions():
    with criterion(10, "all reductions verify at their stated bounds"):
        for q in (2, 3):
            rep = verify_reduction(builtin_reduction("pdisj_to_ipq", q=q), 10)
            assert rep.status == "PASS"
        assert verify_reduction(builtin_reduction("pdisj_to_shuffle"), 6).status == "PASS"
        assert verify_reduction(builtin_reduction("ipq_to_group"), 8).status == "PASS"
        assert verify_reduction(builtin_reduction("ipq_to_tq", q=3), 6).status == "PASS"
        assert verify_reduction(builtin_reduction("lt_to_noncommutative"), 3).status == "PASS"
        oracle = builtin_reduction("pip2_to_L5", variant="TWO_SIDED")
        assert oracle.polarity == "ACCEPT_IS_ZERO"
        assert verify_reduction(oracle, 6).status == "PASS"
        other = verify_reduction(
            builtin_reduction("pip2_to_L5", variant="ZERO_SIDED"), 6)
        assert other.status == "FAIL"
        assert other.counterexample is not None


def test_criterion_11_monoid_language_encoding():
    with criterion(11, "encoding recipe = ideal membership, length <= 2"):
        for name in ("BA2_LANG", "Z3_LANG", "L5"):
            d = builtin_language(name)
            om, _, ideal = syntactic_ordered_monoid(d)
            m = om.monoid
            enc = encode_monoid_as_language(om, ideal, d)
            assert enc.replay_witness_table()
            for n in (1, 2):
                for inst in itertools.product(range(m.size), repeat=2 * n):
                    prod = m.product(inst)
                    assert enc.recipe_member(prod) == (prod in ideal.members)


def test_criterion_12_nonexistence_search():
    with criterion(12, "no local PDISJ-to-L5 reduction in bounded shape"):
        for s_max in (1, 2):
            assert search_local_reduction_nonexistence(s_max=s_max).none_found
        relaxed = search_local_reduction_nonexistence(s_max=1, relaxed=True)
        assert not relaxed.none_found and relaxed.matrices


def test_criterion_13_empirical_tier_growth():
    with criterion(13, "C1 constant for Z3, strictly increasing for BA2+"):
        om, _, _ = syntactic_ordered_monoid(builtin_language("Z3_LANG"))
        for members in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}):
            ideal = ideal_generated(om, members)
            counts = {min_cover(monoid_problem(om, ideal, n), 1)[0]
                      for n in (1, 2, 3, 4)}
            assert len(counts) == 1, (members, counts)

        om, _, ideal_f = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
        ideal = ideal_generated(om, [eval_word(om, "ab")])
        counts = [min_cover(monoid_problem(om, ideal, n), 1)[0]
                  for n in (1, 2, 3)]
        assert counts[0] < counts[1] < counts[2], counts


def test_criterion_14_exact_depth_at_n4():
    with criterion(14, "D = 5 at N = 4; leaves >= fooling_0 + fooling_1"):
        for name, q in (("EQ", None), ("NEQ", None), ("LT", None),
                        ("DISJ", None), ("IP", 2)):
            args = ("--q", str(q)) if q else ()
            assert "bits: 5\n" in cli("cc", "exact", name, "--n", "4", *args)
            f = builtin_function(name, 4, q=q)
            d, tree = exact_deterministic_cc(f)
            assert d == 5
            leaves = tree.leaves()
            for leaf in leaves:
                rect = Rectangle(leaf.rows, leaf.cols)
                assert monochromatic_color(f, rect) == leaf.color, (name, leaf)
            try:
                fooling = sum(len(max_fooling_set(f, z)) for z in (0, 1))
            except CapError:
                # IP q=2 color 1 needs 173 448 clique nodes, past the work cap
                continue
            assert len(leaves) >= fooling, (name, len(leaves), fooling)


def test_criterion_15_sandwich_at_n4():
    with criterion(15, "the sandwich at N = 4; C^D from rank-tight trees"):
        # name, q: C^D, and for DISJ and LT (C^0, C^1, fooling_0, fooling_1)
        pinned = {("EQ", None): (32, None), ("NEQ", None): (32, None),
                  ("IP", 2): (31, None), ("DISJ", None): (31, (4, 16, 4, 16)),
                  ("LT", None): (31, (15, 16, 15, 16))}
        for (name, q), (want_cd, colors) in pinned.items():
            args = ("--q", str(q)) if q else ()
            out = cli("cc", "disjoint", name, "--n", "4", *args)
            assert "count: %d\n" % want_cd in out, name
            f = builtin_function(name, 4, q=q)
            d, tree = exact_deterministic_cc(f)
            cd, cover = min_disjoint_cover(f)
            validate_disjoint_cover(f, cover)
            assert (d, cd) == (5, want_cd), name
            assert log2ceil(cd) <= d and cd <= len(tree.leaves()) <= 2 ** d, name
            if colors is None:
                continue
            covers = [min_cover(f, z)[0] for z in (0, 1)]
            fooling = [len(max_fooling_set(f, z)) for z in (0, 1)]
            assert tuple(covers + fooling) == colors, name
            for z in (0, 1):
                assert fooling[z] <= covers[z] <= cd, (name, z)
            assert d <= (log2ceil(covers[0]) + 2) * (log2ceil(covers[1]) + 2)
