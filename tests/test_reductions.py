import itertools
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from regcc import commcc, reductions
from regcc.automata import EPSILON, CapError, CcError, Dfa, accepts, builtin_language
from regcc.classify import BUILTIN_MONOID_NAMES, builtin_monoid
from regcc.commcc import UNDEF
from regcc.monoid import eval_word, find_tq, ideal_generated, syntactic_ordered_monoid
from regcc.reductions import (
    ACCEPT_IS_ONE, ACCEPT_IS_ZERO, BUILTIN_REDUCTION_NAMES, LocalReduction,
    MonoidTarget, VerificationReport, builtin_reduction,
    encode_monoid_as_language, group_reduction, lt_reduction,
    search_local_reduction_nonexistence, shuffle_reduction, tq_reduction,
    verify_reduction,
)
from regcc.reductions import _matrix_dfs, _replayer, _v_candidates


def flipped(r: LocalReduction) -> LocalReduction:
    polarity = ACCEPT_IS_ZERO if r.polarity == ACCEPT_IS_ONE else ACCEPT_IS_ONE
    return LocalReduction(r.name, r.source_name, r.alice, r.bob,
                          r.alice_prefix, r.bob_prefix,
                          r.alice_suffix, r.bob_suffix,
                          r.target, polarity, r.source_q, r.source_variant)


# --- block semantics ----------------------------------------------------------

def test_shuffle_blocks():
    om, _ = builtin_monoid("BA2_PLUS")
    m = om.monoid
    r = builtin_reduction("pdisj_to_shuffle")
    # one bit set on both sides produces u v u around the prefixes
    seq = r.apply("1", "1")
    assert m.product(seq) == m.product(
        [eval_word(m, "ab"), eval_word(m, "ba"), eval_word(m, "ab")])
    # disjoint bits keep the product at the idempotent u
    for bits in (("0", "0"), ("0", "1"), ("1", "0")):
        assert m.product(r.apply(*bits)) == eval_word(m, "ab")


def test_group_blocks():
    r = builtin_reduction("ipq_to_group")
    m = r.target.om.monoid
    assert r.source_q == 3  # commutator of the two transpositions is a 3-cycle
    # the (0,0) block alone is the identity; strip prefix/suffix by hand
    block = [x for pair in zip(r.alice[0], r.bob[0]) for x in pair]
    assert m.product(block) == m.identity
    block11 = [x for pair in zip(r.alice[1], r.bob[1]) for x in pair]
    assert m.product(block11) != m.identity


def test_tq_blocks():
    om, _ = builtin_monoid("TQ_EXAMPLE", q=3)
    m = om.monoid
    q, e, f = find_tq(m)
    r = tq_reduction(om, e, f, q)
    efe = m.product([e, f, e])
    block11 = [x for pair in zip(r.alice[1], r.bob[1]) for x in pair]
    assert m.product(block11) == efe
    for z in ((0, 0), (0, 1), (1, 0)):
        block = [x for pair in zip(r.alice[z[0]], r.bob[z[1]]) for x in pair]
        assert m.product(block) == e


def test_lt_sequence_length_and_product():
    r = builtin_reduction("lt_to_noncommutative")
    m = r.target.om.monoid
    for n in (1, 2, 3):
        assert r.length(n) == 2 ** n
    seq = r.apply(1, 2, 2)
    assert len(seq) == 2 * r.length(2)
    assert m.product(seq) == eval_word(m, "ab")
    assert m.product(r.apply(2, 1, 2)) == eval_word(m, "ba")


def test_pip2_blocks_match_l5_words():
    r = builtin_reduction("pip2_to_L5")
    d = builtin_language("L5")
    words = {
        ("0", "0"): "abab",
        ("0", "1"): "abaaab",
        ("1", "0"): "abbb",
        ("1", "1"): "ababab",
    }
    for (xb, yb), word in words.items():
        built = r.apply(xb, yb)
        assert built.replace("_", "") == word + "b"
        for start in range(5):
            assert d.run(built, start=start) == d.run(word + "b", start=start)


# --- verification --------------------------------------------------------------

def test_verify_pdisj_to_ipq():
    for q in (2, 3):
        rep = verify_reduction(builtin_reduction("pdisj_to_ipq", q=q), 6)
        assert rep.status == "PASS"
        assert rep.checked_pairs > 0


def test_verify_rejects_an_empty_range():
    with pytest.raises(CcError, match="n_max"):
        verify_reduction(builtin_reduction("lt_to_noncommutative"), 0)


def test_verify_is_metered(monkeypatch):
    # IP_3 has 4, 16 and 64 defined cells at n = 1, 2 and 3
    r = builtin_reduction("ipq_to_group")
    monkeypatch.setattr(commcc, "WORK_CAP", 84)
    assert verify_reduction(r, 3).checked_pairs == 84
    monkeypatch.setattr(commcc, "WORK_CAP", 83)
    with pytest.raises(CapError, match="verify"):
        verify_reduction(r, 3)


def test_verify_rejects_lengths_past_the_materialization_cap(monkeypatch):
    # checked before any length is built or replayed
    def no_source(self, n):
        raise AssertionError("a length was built")

    r = builtin_reduction("ipq_to_group")
    monkeypatch.setattr(type(r), "source", no_source)
    with pytest.raises(CapError, match="n_max=13"):
        verify_reduction(r, commcc.MATERIALIZE_CAP + 1)


@pytest.mark.parametrize("name", ["ipq_to_group", "lt_to_noncommutative"])
def test_verify_builds_each_source_once(name, monkeypatch):
    # a local and a position reduction: replaying either again reads its
    # sources from the cache, and reads the same frozen matrices
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return commcc.builtin_function(*args, **kwargs)

    reductions._source.cache_clear()
    monkeypatch.setattr(reductions, "builtin_function", counted)
    r = builtin_reduction(name)
    first = [r.source(n) for n in (1, 2, 3)]
    assert verify_reduction(r, 3) == verify_reduction(r, 3)
    assert [r.source(n) for n in (1, 2, 3)] == first
    assert len(built) == 3


def test_verify_shuffle():
    assert verify_reduction(builtin_reduction("pdisj_to_shuffle"), 4).status == "PASS"


def test_verify_group():
    assert verify_reduction(builtin_reduction("ipq_to_group"), 5).status == "PASS"


def test_verify_tq():
    assert verify_reduction(builtin_reduction("ipq_to_tq", q=3), 4).status == "PASS"


def test_verify_lt():
    assert verify_reduction(builtin_reduction("lt_to_noncommutative"), 3).status == "PASS"


def test_verify_lt_replays_every_length_up_to_the_work_cap():
    # 4 + 16 + ... + 4^11 = 5 592 404 cells fit under WORK_CAP; n = 12's
    # 4^12 more do not
    r = builtin_reduction("lt_to_noncommutative")
    rep = verify_reduction(r, 11)
    assert (rep.status, rep.checked_pairs) == ("PASS", 5_592_404)
    with pytest.raises(CapError, match="verify"):
        verify_reduction(r, 12)


def test_verify_pip2_two_sided():
    r = builtin_reduction("pip2_to_L5", variant="TWO_SIDED")
    assert r.polarity == ACCEPT_IS_ZERO
    assert verify_reduction(r, 4).status == "PASS"


def test_verify_pip2_zero_sided_fails():
    r = builtin_reduction("pip2_to_L5", variant="ZERO_SIDED")
    rep = verify_reduction(r, 4)
    assert rep.status == "FAIL"
    n, x, y, expected, got = rep.counterexample
    assert (n, x, y, expected, got) == (1, "1", "0", 1, 0)


def test_polarity_flip_fails():
    r = builtin_reduction("pdisj_to_shuffle")
    rep = verify_reduction(flipped(r), 3)
    assert rep.status == "FAIL"
    assert rep.counterexample is not None


def test_report_serialization():
    rep = verify_reduction(builtin_reduction("pdisj_to_ipq"), 3)
    text = rep.serialize()
    assert "status: PASS" in text and "n_range: 1..3" in text


def test_append_ones_replay_does_not_build_the_instance():
    # the replay folds IP_q's automaton, at most MATERIALIZE_CAP + 1 states
    # whatever q is, so a q of 10^9 replays as fast as q = 2 and checks the
    # same pairs
    want = verify_reduction(builtin_reduction("pdisj_to_ipq", q=2), 3)
    start = time.perf_counter()
    got = verify_reduction(builtin_reduction("pdisj_to_ipq", q=10 ** 9), 3)
    assert time.perf_counter() - start < 1
    assert (got.status, got.checked_pairs) == ("PASS", want.checked_pairs)


def test_append_ones_replay_is_one_fold():
    # 4 + 16 + ... + 4^12 cells less PDISJ's undefined ones
    start = time.perf_counter()
    report = verify_reduction(builtin_reduction("pdisj_to_ipq"), 12)
    assert time.perf_counter() - start < 3
    assert (report.status, report.checked_pairs) == ("PASS", 3_852_946)


def test_reduction_descriptor_serialization():
    from regcc.reductions import serialize_reduction
    text = serialize_reduction(builtin_reduction("pip2_to_L5"))
    assert "matrix0: a/_/_/b/a/b/_/_" in text
    assert "matrix1: a/b/_/a/b/a/_/b" in text
    assert "suffix: b/_" in text
    assert "polarity: ACCEPT_IS_ZERO" in text
    text = serialize_reduction(builtin_reduction("pdisj_to_shuffle"))
    assert "target: monoid[size=6] ideal=<ab>" in text
    assert "prefix: ab/_" in text and "suffix: _/ab" in text
    text = serialize_reduction(builtin_reduction("lt_to_noncommutative"))
    assert "length: 2^n" in text and "plant: a/b" in text
    text = serialize_reduction(builtin_reduction("pdisj_to_ipq", q=3))
    assert "target: function IP_3" in text and "append: 111" in text
    # both IP reductions name q in their source: the commutator of S3's two
    # transpositions has order 3, and TQ_EXAMPLE is built for q = 3
    for name in ("ipq_to_group", "ipq_to_tq"):
        text = serialize_reduction(builtin_reduction(name))
        assert text.splitlines()[:2] == ["name: %s" % name, "source: IP_3"]



# --- the fold against the per-pair replay ------------------------------------------

def scalar_replay(reduction, n_max):
    """The per-pair replay: every defined cell through ``decides_one`` in
    row-major order, stopping at the first mismatch."""
    checked = 0
    for n in range(1, n_max + 1):
        f = reduction.source(n)
        for i, j, expected in f.defined_cells():
            x, y = f.row_labels[i], f.col_labels[j]
            got = int(reduction.decides_one(x, y))
            checked += 1
            if got != expected:
                return VerificationReport(reduction.name, "FAIL", (1, n_max),
                                          checked, (n, x, y, expected, got))
    return VerificationReport(reduction.name, "PASS", (1, n_max), checked, None)


def assert_fold_matches(reduction, n_max):
    """The same report as the per-pair replay, and every replayed cell
    (undefined ones too, where the replay fills them) is ``decides_one``."""
    report = verify_reduction(reduction, n_max)
    assert report == scalar_replay(reduction, n_max)
    levels = _replayer(reduction)
    for n in range(1, n_max + 1):
        f = reduction.source(n)
        for x, want, row in zip(f.row_labels, f.rows, next(levels)):
            assert len(row) == len(want)
            for y, w, got in zip(f.col_labels, want, row):
                if got != UNDEF or w != UNDEF:
                    assert got == str(int(reduction.decides_one(x, y)))
    return report


def seeded_monoids(seed, count):
    """Syntactic ordered monoids of seeded random automata."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(2, 4)
        d = Dfa.make("ab", k, 0, {s for s in range(k) if rng.random() < 0.5},
                     {a: [rng.randrange(k) for _ in range(k)] for a in "ab"})
        yield syntactic_ordered_monoid(d)[0]


def fold_test_monoids():
    names = [name for name in BUILTIN_MONOID_NAMES if name != "TQ_EXAMPLE"]
    return [builtin_monoid(name)[0] for name in names] + \
        [builtin_monoid("TQ_EXAMPLE", q=3)[0]] + list(seeded_monoids(23, 12))


def random_ideal(rng, om):
    return ideal_generated(om, rng.sample(range(om.size), rng.randint(1, min(2, om.size))))


SOURCES = (("PDISJ", None, None), ("IP", 2, None), ("IP", 3, None),
           ("LT", None, None), ("DISJ", None, None),
           ("PIP2", None, "TWO_SIDED"), ("PIP2", None, "ZERO_SIDED"))


def random_local_reduction(rng, om):
    def entries(k):
        return tuple(rng.randrange(om.size) for _ in range(k))

    s, prefix, suffix = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
    source, q, variant = rng.choice(SOURCES)
    return LocalReduction(
        "random", source, (entries(s), entries(s)), (entries(s), entries(s)),
        entries(prefix), entries(prefix), entries(suffix), entries(suffix),
        MonoidTarget(om, random_ideal(rng, om)),
        rng.choice((ACCEPT_IS_ONE, ACCEPT_IS_ZERO)), q, variant)


def test_fold_matches_scalar_replay_on_random_reductions():
    rng = random.Random(23)
    lt = builtin_reduction("lt_to_noncommutative")
    for om in fold_test_monoids():
        for _ in range(6):
            assert_fold_matches(random_local_reduction(rng, om), 3)
        a, b = rng.randrange(om.size), rng.randrange(om.size)
        polarity = rng.choice((ACCEPT_IS_ONE, ACCEPT_IS_ZERO))
        assert_fold_matches(replace(lt, target=MonoidTarget(om, random_ideal(rng, om)),
                                    polarity=polarity, a=a, b=b), 3)


def test_fold_matches_scalar_replay_on_builtin_reductions():
    for name in BUILTIN_REDUCTION_NAMES:
        assert assert_fold_matches(builtin_reduction(name), 4).status == "PASS"
    zero_sided = builtin_reduction("pip2_to_L5", variant="ZERO_SIDED")
    assert assert_fold_matches(zero_sided, 4).counterexample == (1, "1", "0", 1, 0)
    # the less-than reduction with its pair swapped plants b before a
    om, _ = builtin_monoid("BA2_PLUS")
    a, b = om.monoid.generator_map["a"], om.monoid.generator_map["b"]
    assert assert_fold_matches(lt_reduction(om, b, a), 4).status == "PASS"
    # the append-ones fold, with q past IP_q's MATERIALIZE_CAP + 1 states too
    for q in (3, 13, 10 ** 9):
        r = builtin_reduction("pdisj_to_ipq", q=q)
        assert assert_fold_matches(r, 4).status == "PASS"
        flip = replace(r, polarity=ACCEPT_IS_ZERO)
        assert assert_fold_matches(flip, 4).counterexample \
            == scalar_replay(flip, 4).counterexample == (1, "0", "0", 1, 0)


def corrupted_builtins():
    """Copies of the built-in reductions with one slot entry, plant or
    source parameter changed."""
    for name in ("ipq_to_group", "ipq_to_tq"):
        r = builtin_reduction(name)
        yield replace(r, source_q=2)          # IP_3 and IP_2 part at n = 2
        yield replace(r, source_q=4)          # and IP_3 and IP_4 at n = 3
    shuffle = builtin_reduction("pdisj_to_shuffle")
    for z, k in itertools.product((0, 1), range(len(shuffle.alice[0]))):
        for e in range(shuffle.target.om.size):
            rows = [list(row) for row in shuffle.alice]
            rows[z][k] = e
            yield replace(shuffle, alice=tuple(map(tuple, rows)))
    lt = builtin_reduction("lt_to_noncommutative")
    for a, b in itertools.product(range(lt.target.om.size), repeat=2):
        yield replace(lt, a=a, b=b)
    pip2 = builtin_reduction("pip2_to_L5")
    for side, z, k in itertools.product(("alice", "bob"), (0, 1), range(4)):
        rows = [list(row) for row in getattr(pip2, side)]
        if len(rows[0][k]) != 1 or len(rows[1][k]) != 1:
            continue
        for letter in ("a", "b", EPSILON):
            rows[z][k] = letter
            yield replace(pip2, **{side: tuple(map(tuple, rows))})
    ipq = builtin_reduction("pdisj_to_ipq")
    yield replace(ipq, polarity=ACCEPT_IS_ZERO)


def test_corrupted_reductions_report_the_scalar_counterexample():
    failed_at = Counter()
    for r in corrupted_builtins():
        report = assert_fold_matches(r, 4)
        if report.status == "FAIL":
            failed_at[report.counterexample[0]] += 1
            assert report.serialize() == scalar_replay(r, 4).serialize()
    assert set(failed_at) == {1, 2, 3}, failed_at


# --- side conditions --------------------------------------------------------------

def test_shuffle_side_conditions():
    om, _ = builtin_monoid("BA2_PLUS")
    with pytest.raises(CcError):
        shuffle_reduction(om, "ab", "a", "a", "aa")     # u != w1 w2
    with pytest.raises(CcError):
        shuffle_reduction(om, "a", "a", "", "a")        # eval(a) not idempotent
    with pytest.raises(CcError):
        shuffle_reduction(om, "ab", "a", "b", "ab")     # uvu below u


def test_group_side_conditions():
    om, _ = builtin_monoid("Z3")
    g = om.monoid.generator_map["a"]
    with pytest.raises(CcError):
        group_reduction(om, g, g)                       # commuting pair
    ba2, _ = builtin_monoid("BA2_PLUS")
    a = ba2.monoid.generator_map["a"]
    b = ba2.monoid.generator_map["b"]
    with pytest.raises(CcError):
        group_reduction(ba2, a, b)                      # not invertible


def test_group_reduction_inverts_by_the_period():
    om, _ = builtin_monoid("S3")
    m = om.monoid
    a, b = m.generator_map["a"], m.generator_map["b"]
    red = group_reduction(om, a, b)
    for x, inverse in ((a, red.alice[1][0]), (b, red.bob[1][0])):
        assert m.mul(x, inverse) == m.identity == m.mul(inverse, x)
    # a three-cycle has period 3, so its inverse is its square
    c = m.mul(a, b)
    assert m.cycles[c][1] == 3
    assert group_reduction(om, c, a).alice[1][0] == m.mul(c, c)


def test_group_reduction_below_a_non_unit():
    # a and b permute states 0-2 as S3; c sends every state to the
    # accepting sink 3, so c < 1 in the order, yet no unit lies below 1
    d = Dfa(("a", "b", "c"), 4, 0, frozenset({0, 3}),
            ((1, 2, 0, 3), (1, 0, 2, 3), (3, 3, 3, 3)))
    om, _, _ = syntactic_ordered_monoid(d)
    m = om.monoid
    a, b, c = (m.generator_map[x] for x in "abc")
    assert om.leq(c, m.identity) and c != m.identity
    report = verify_reduction(group_reduction(om, a, b), 6)
    assert (report.status, report.checked_pairs) == ("PASS", 5460)


def test_tq_side_conditions():
    om, _ = builtin_monoid("TQ_EXAMPLE", q=3)
    q, e, f = find_tq(om.monoid)
    with pytest.raises(CcError):
        tq_reduction(om, e, f, q + 1)
    with pytest.raises(CcError):
        tq_reduction(om, om.monoid.generator_map["f"],
                     om.monoid.generator_map["f"], 2)


def test_lt_side_conditions():
    om, _ = builtin_monoid("BA2_PLUS")
    m = om.monoid
    a = m.generator_map["a"]
    with pytest.raises(CcError):
        lt_reduction(om, a, a)
    # a * ab is the top element, so (ab)*a is strictly below it and the
    # required non-comparability fails
    ab = eval_word(m, "ab")
    assert om.leq(m.mul(ab, a), m.mul(a, ab))
    with pytest.raises(CcError):
        lt_reduction(om, a, ab)
    # both generator orientations are genuinely incomparable and legal
    b = m.generator_map["b"]
    assert verify_reduction(lt_reduction(om, b, a), 2).status == "PASS"


def test_builtin_reduction_registry():
    for name in BUILTIN_REDUCTION_NAMES:
        r = builtin_reduction(name)
        assert r.name == name
    with pytest.raises(CcError):
        builtin_reduction("nope")


def test_apply_reduction_domain_checks():
    from regcc.reductions import apply_reduction
    shuffle = builtin_reduction("pdisj_to_shuffle")
    m = shuffle.target.om.monoid
    seq = apply_reduction(shuffle, "10", "01")
    assert m.product(seq) == eval_word(m, "ab")
    with pytest.raises(CcError):
        apply_reduction(shuffle, "11", "11")   # intersection size 2
    with pytest.raises(CcError):
        apply_reduction(shuffle, "1", "01")
    lt = builtin_reduction("lt_to_noncommutative")
    m = lt.target.om.monoid
    assert m.product(apply_reduction(lt, 1, 2, 2)) == eval_word(m, "ab")
    with pytest.raises(CcError):
        apply_reduction(lt, 5, 1, 2)


# --- monoid-to-language encoding ----------------------------------------------------

@pytest.mark.parametrize("name", ["BA2_LANG", "Z3_LANG"])
def test_encoding_recipe_exhaustive(name):
    d = builtin_language(name)
    om, _, ideal = syntactic_ordered_monoid(d)
    m = om.monoid
    enc = encode_monoid_as_language(om, ideal, d)
    assert enc.replay_witness_table()
    for inst in itertools.product(range(m.size), repeat=4):
        prod = m.product(inst)
        assert enc.recipe_member(prod) == (prod in ideal.members)


@pytest.mark.parametrize("name", ["BA2_LANG", "Z3_LANG", "L5"])
def test_encoding_word_level_length_one(name):
    d = builtin_language(name)
    om, _, ideal = syntactic_ordered_monoid(d)
    m = om.monoid
    enc = encode_monoid_as_language(om, ideal, d)
    for a in range(m.size):
        for b in range(m.size):
            for context in enc.contexts():
                p, q = context
                word = enc.merged_word([a], [b], context)
                assert accepts(d, word) == \
                    (m.product([p, a, b, q]) in ideal.members)


def test_encoding_padded_words():
    d = builtin_language("L5")
    om, _, ideal = syntactic_ordered_monoid(d)
    enc = encode_monoid_as_language(om, ideal, d)
    for x in range(om.size):
        padded = enc.word_of(x)
        assert len(padded) == enc.width
        assert padded.replace("_", "") == om.monoid.names[x]


def test_encoding_trivial_monoid():
    from regcc.automata import Dfa
    d = Dfa.make("a", 1, 0, {0}, {"a": [0]})
    om, _, ideal = syntactic_ordered_monoid(d)
    enc = encode_monoid_as_language(om, ideal, d)
    assert enc.witness_table == ()
    assert enc.recipe_member(0)


def test_encoding_rejects_mismatch():
    d = builtin_language("BA2_LANG")
    om, _, ideal = syntactic_ordered_monoid(builtin_language("L5"))
    with pytest.raises(CcError):
        encode_monoid_as_language(om, ideal, d)


# --- bounded non-existence ------------------------------------------------------------

def test_nonexistence_pruned():
    for s_max in (1, 2):
        rep = search_local_reduction_nonexistence(s_max=s_max)
        assert rep.none_found


def matrix_by_placement(u, v, slots):
    """Oracle: place u on row 0 and v on row 1 in every way, unpruned, and
    return the first pair of rows whose two mixed readings are both u."""
    width = 2 * slots
    for pos0 in itertools.combinations(range(width), len(u)):
        row0 = [EPSILON] * width
        for p, ch in zip(pos0, u):
            row0[p] = ch
        for pos1 in itertools.combinations(range(width), len(v)):
            row1 = [EPSILON] * width
            for p, ch in zip(pos1, v):
                row1[p] = ch
            word01 = "".join(row0[k] if k % 2 == 0 else row1[k]
                             for k in range(width)).replace(EPSILON, "")
            if word01 != u:
                continue
            word10 = "".join(row1[k] if k % 2 == 0 else row0[k]
                             for k in range(width)).replace(EPSILON, "")
            if word10 != u:
                continue
            return tuple(row0), tuple(row1)
    return None


def test_nonexistence_agrees_unpruned():
    pruned = search_local_reduction_nonexistence(s_max=1, pruned=True)
    unpruned = search_local_reduction_nonexistence(s_max=1, pruned=False)
    assert pruned.none_found == unpruned.none_found is True
    # the unpruned pool is genuinely nonempty, so the agreement is not vacuous
    assert all(count > 0 for _, count in unpruned.v_counts)


def test_matrix_search_agrees_with_placement_oracle():
    # every candidate (u, v) of the s_max=1 unpruned and relaxed searches
    dfa = builtin_language("L5")
    slots = 4
    found = 0
    for relaxed, pruned in ((False, False), (True, True)):
        report = search_local_reduction_nonexistence(
            s_max=1, relaxed=relaxed, pruned=pruned)
        for u in report.u_words:
            for v in _v_candidates(dfa, u, slots, relaxed, pruned):
                exists = matrix_by_placement(u, v, slots) is not None
                assert (_matrix_dfs(u, v, slots) is not None) == exists, (u, v)
                found += exists
    # the relaxed pool holds matrices, so both answers are exercised
    assert found > 0


def test_nonexistence_relaxed_inversion():
    rep = search_local_reduction_nonexistence(s_max=1, relaxed=True)
    assert not rep.none_found
    u, v, row0, row1 = rep.matrices[0]
    width = len(row0)
    # replay the four interleavings
    assert "".join(row0).replace("_", "") == u
    assert "".join(row1).replace("_", "") == v
    word01 = "".join(row0[k] if k % 2 == 0 else row1[k]
                     for k in range(width)).replace("_", "")
    word10 = "".join(row1[k] if k % 2 == 0 else row0[k]
                     for k in range(width)).replace("_", "")
    assert word01 == u and word10 == u


def test_nonexistence_bounds():
    with pytest.raises(CcError):
        search_local_reduction_nonexistence(s_max=0)
    with pytest.raises(CcError):
        search_local_reduction_nonexistence(s_max=4)


def test_nonexistence_report_serialize():
    rep = search_local_reduction_nonexistence(s_max=1)
    text = rep.serialize()
    assert "status: NONE_FOUND" in text
    assert "s_max: 1" in text
