import itertools

import pytest

from regcc.automata import EPSILON, CcError, accepts, builtin_language
from regcc.classify import builtin_monoid
from regcc.monoid import eval_word, find_tq, syntactic_ordered_monoid
from regcc.reductions import (
    ACCEPT_IS_ONE, ACCEPT_IS_ZERO, BUILTIN_REDUCTION_NAMES, LocalReduction,
    builtin_reduction, encode_monoid_as_language, group_reduction,
    lt_reduction, search_local_reduction_nonexistence, shuffle_reduction,
    tq_reduction, verify_reduction,
)
from regcc.reductions import _matrix_dfs, _v_candidates


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


def test_verify_shuffle():
    assert verify_reduction(builtin_reduction("pdisj_to_shuffle"), 4).status == "PASS"


def test_verify_group():
    assert verify_reduction(builtin_reduction("ipq_to_group"), 5).status == "PASS"


def test_verify_tq():
    assert verify_reduction(builtin_reduction("ipq_to_tq", q=3), 4).status == "PASS"


def test_verify_lt():
    assert verify_reduction(builtin_reduction("lt_to_noncommutative"), 3).status == "PASS"


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
