import itertools

import numpy as np
import pytest

from regcc.automata import CapError, CcError, Dfa, builtin_language, minimize
from regcc.monoid import (
    FiniteMonoid, OrderedMonoid, check_property,
    commutative_quotient, divides, eval_term, eval_word, exponent, find_tq,
    ideal_generated, identity_counterexample, is_order_ideal,
    maximal_subgroups, nonabelian_subgroup_witness, satisfies_identity,
    serialize_monoid, syntactic_ordered_monoid, transition_monoid,
)

BUILTIN_NAMES = ["BA2_LANG", "L5", "U_MINUS_LANG", "U_PLUS_LANG", "Z3_LANG"]


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def cyclic(n):
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    names = tuple("g" * i for i in range(n))
    return OrderedMonoid.with_equality(
        FiniteMonoid(n, 0, table, names, (("g", 1 % n),)))


def s3_monoid():
    d = Dfa.make("ab", 3, 0, set(), {"a": [1, 0, 2], "b": [2, 1, 0]})
    m, _ = transition_monoid(d)
    return OrderedMonoid.with_equality(m)


@pytest.fixture(scope="module")
def ba2():
    return syntactic_ordered_monoid(builtin_language("BA2_LANG"))


@pytest.fixture(scope="module")
def l5():
    return syntactic_ordered_monoid(builtin_language("L5"))


# --- transition monoid ------------------------------------------------------

def brute_action_count(d, max_len):
    """Oracle: distinct word actions by direct enumeration."""
    return len({d.word_action(w) for w in all_words(d.alphabet, max_len)})


def test_transition_monoid_z3():
    d = builtin_language("Z3_LANG")
    m, gens = transition_monoid(d)
    assert m.size == 3 == brute_action_count(d, 6)
    g = gens["a"]
    assert m.power(g, 3) == m.identity
    assert m.power(g, 2) != m.identity


def test_transition_monoid_ba2_closure():
    d = builtin_language("BA2_LANG")
    m, _ = transition_monoid(d)
    assert m.size == 6 == brute_action_count(d, 6)
    assert set(m.names) == {"", "a", "b", "aa", "ab", "ba"}
    ev = lambda w: eval_word(m, w)
    assert ev("aa") == ev("bb")
    assert ev("aab") == ev("aa") == ev("baa")
    assert ev("aba") == ev("a")
    assert ev("bab") == ev("b")
    assert ev("abbaab") == ev("aa")
    # the discrepancy noted against the presentation: aaa equals aa, not a
    assert ev("aaa") == ev("aa") != ev("a")


def test_transition_monoid_trivial():
    d = Dfa.make("a", 1, 0, {0}, {"a": [0]})
    m, _ = transition_monoid(d)
    assert m.size == 1
    m.validate()


def test_transition_monoid_cap():
    d = builtin_language("L5")
    with pytest.raises(CapError):
        transition_monoid(d, cap=10)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_table_is_a_monoid(name):
    m, _ = transition_monoid(builtin_language(name))
    m.validate()


# --- syntactic ordered monoid ----------------------------------------------

@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_syntactic_order_is_stable(name):
    om, _, ideal = syntactic_ordered_monoid(builtin_language(name))
    om.order.validate(om.monoid)
    assert is_order_ideal(om, ideal.members)
    # the accepting set is the downward closure of its generating set,
    # and every listed generator is maximal inside it
    assert ideal_generated(om, ideal.generating).members == ideal.members
    for g in ideal.generating:
        assert not any(x != g and om.leq(g, x) for x in ideal.members)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_syntactic_monoid_is_transition_monoid_of_minimal(name):
    d = builtin_language(name)
    om, _, _ = syntactic_ordered_monoid(d)
    m, _ = transition_monoid(minimize(d))
    assert m.table == om.monoid.table and m.names == om.monoid.names


def test_ba2_order_facts(ba2):
    om, gens, ideal = ba2
    m = om.monoid
    ev = lambda w: eval_word(m, w)
    # top element
    assert all(om.leq(x, ev("aa")) for x in range(m.size))
    # membership-implication checked against word contexts (independent route)
    d = builtin_language("BA2_LANG")
    from regcc.automata import accepts
    contexts = list(itertools.product(all_words("ab", 3), repeat=2))
    for x_word, y_word in (("ba", "ab"), ("ab", "ba"), ("a", "ab")):
        expected = all(not accepts(d, p + y_word + q) or accepts(d, p + x_word + q)
                       for p, q in contexts)
        assert om.leq(ev(x_word), ev(y_word)) == expected
    assert not om.leq(ev("ba"), ev("ab"))
    assert om.leq(m.identity, ev("ab"))
    assert sorted(ideal.members) == [m.identity, ev("ab")]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_syntactic_order_matches_word_context_oracle(name):
    """Rebuild the whole order matrix from raw automaton runs.

    Quantifying contexts over words up to the longest element name is
    exact: any refutation of x <= y realizes as a pair of name words, and
    membership of longer contexts factors through the same elements.
    """
    d = builtin_language(name)
    om, _, _ = syntactic_ordered_monoid(d)
    m = om.monoid
    bound = max(len(n) for n in m.names)
    words = [""]
    for ln in range(1, bound + 1):
        words.extend("".join(t) for t in itertools.product(d.alphabet, repeat=ln))
    act = {w: d.word_action(w) for w in words}
    contexts = [(u, v) for u in words for v in words]
    masks = []
    for x in range(m.size):
        ax = act[m.names[x]]
        mask = 0
        for k, (u, v) in enumerate(contexts):
            if act[v][ax[act[u][d.initial]]] in d.accepting:
                mask |= 1 << k
        masks.append(mask)
    for x in range(m.size):
        for y in range(m.size):
            assert om.leq(x, y) == (masks[y] & ~masks[x] == 0), (x, y)


def test_group_language_order_is_equality():
    om, _, _ = syntactic_ordered_monoid(builtin_language("Z3_LANG"))
    assert om.order.is_equality()
    assert check_property(om, "group")[0]


def test_l5_order_fact(l5):
    om, _, _ = l5
    ev = lambda w: eval_word(om.monoid, w)
    assert not om.leq(ev("bbaa"), ev("abab"))


def test_syntactic_divides_unminimized_transition_monoid():
    # duplicate the sink of the (ab)* automaton; language is unchanged but
    # the transition monoid grows from 6 to 8 elements
    d = Dfa.make("ab", 4, 0, {0},
                 {"a": [1, 2, 2, 3], "b": [3, 0, 2, 3]})
    om, _, _ = syntactic_ordered_monoid(d)
    big, _ = transition_monoid(d)
    assert om.size == 6 and big.size == 8
    ok, _ = divides(OrderedMonoid.with_equality(om.monoid),
                    OrderedMonoid.with_equality(big))
    assert ok


# --- words and terms --------------------------------------------------------

def test_eval_word_epsilon(ba2):
    om, _, _ = ba2
    assert eval_word(om, "") == om.monoid.identity
    assert eval_word(om, "__") == om.monoid.identity
    assert eval_word(om, "a_b_") == eval_word(om, "ab")
    with pytest.raises(CcError):
        eval_word(om, "z")


def test_generator_map_built_once(ba2):
    om, _, _ = ba2
    m = om.monoid
    assert m.generator_map is m.generator_map
    assert m.generator_map == dict(m.generators) == {"a": 1, "b": 2}
    # cached on the instance: equality and hashing still go by the fields
    assert m == FiniteMonoid(m.size, m.identity, m.table, m.names, m.generators)
    assert hash(m) == hash(FiniteMonoid(m.size, m.identity, m.table, m.names,
                                        m.generators))


@pytest.mark.parametrize("name", ["BA2_LANG", "L5"])
def test_closure_hands_over_its_int32_table(name):
    d = builtin_language(name)
    for m in (transition_monoid(d)[0], syntactic_ordered_monoid(d)[0].monoid):
        # set by the closure itself, not rebuilt from the tuple table
        assert "table_array" in vars(m)
        assert m.table_array.dtype == np.int32
        assert np.array_equal(m.table_array, np.array(m.table))


def test_eval_term_omega(ba2):
    om, _, _ = ba2
    m = om.monoid
    assert eval_term(m, "(ab)^w") == eval_word(m, "ab")
    assert eval_term(m, "a^w") == eval_word(m, "aa")
    assert eval_term(m, "a^(w+1)") == m.mul(eval_word(m, "aa"), eval_word(m, "a"))
    assert eval_term(m, "1") == m.identity
    assert eval_term(m, "a^2b") == eval_word(m, "aab")


def test_exponent_values(ba2):
    om, _, _ = ba2
    assert exponent(om.monoid) == 2
    assert exponent(cyclic(3).monoid) == 3
    assert exponent(cyclic(1).monoid) == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_omega_power_idempotent(name):
    om, _, _ = syntactic_ordered_monoid(builtin_language(name))
    m = om.monoid
    w = exponent(m)
    for x in range(m.size):
        xw = m.power(x, w)
        assert m.mul(xw, xw) == xw
    # minimality: some element is not yet idempotent at any smaller power
    for k in range(1, w):
        assert any(m.mul(m.power(x, k), m.power(x, k)) != m.power(x, k)
                   for x in range(m.size))


# --- identities and properties ---------------------------------------------

def test_identities():
    z3 = cyclic(3)
    assert satisfies_identity(z3, "ab", "ba")
    assert satisfies_identity(z3, "a^w", "1")
    u, _, _ = syntactic_ordered_monoid(builtin_language("U_MINUS_LANG"))
    assert satisfies_identity(u, "a^w", "a^(w+1)")


def test_identity_counterexample(ba2):
    om, _, _ = ba2
    ce = identity_counterexample(om, "ab", "ba")
    assert ce is not None
    m = om.monoid
    assert m.mul(ce["a"], ce["b"]) != m.mul(ce["b"], ce["a"])


def test_identity_leq_mode(ba2):
    om, _, _ = ba2
    assert satisfies_identity(om, "x", "x", mode="leq")
    # fails when a is assigned a non-top idempotent such as eval(ab)
    assert not satisfies_identity(om, "x", "a^w", mode="leq")
    assert not satisfies_identity(om, "xy", "yx", mode="leq")
    with pytest.raises(CcError):
        satisfies_identity(om.monoid, "x", "y", mode="leq")
    with pytest.raises(CcError):
        satisfies_identity(om, "x", "y", mode="between")


def test_too_many_variables(ba2):
    om, _, _ = ba2
    with pytest.raises(CcError):
        satisfies_identity(om, "abcd", "dcba")


def test_check_properties():
    z3 = cyclic(3)
    assert check_property(z3, "commutative") == (True, None)
    assert check_property(z3, "group") == (True, None)
    ba2, _, _ = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
    ok, witness = check_property(ba2, "commutative")
    assert not ok
    x, y = witness
    assert ba2.monoid.mul(x, y) != ba2.monoid.mul(y, x)
    assert check_property(ba2, "aperiodic")[0]
    assert not check_property(ba2, "group")[0]
    with pytest.raises(CcError):
        check_property(z3, "nonsense")


def test_commutative_agrees_with_identity():
    for name in BUILTIN_NAMES:
        om, _, _ = syntactic_ordered_monoid(builtin_language(name))
        assert check_property(om, "commutative")[0] == \
            satisfies_identity(om, "ab", "ba")


def test_shuffle_ideal_identity_is_maximum():
    # sigma* a sigma* is a shuffle ideal; its syntactic ordered monoid must
    # have the identity as greatest element
    d = Dfa.make("ab", 2, 0, {1}, {"a": [1, 1], "b": [0, 1]})
    om, _, _ = syntactic_ordered_monoid(d)
    assert check_property(om, "identity_is_maximum")[0]


def test_locally_trivial_and_idempotent():
    d = Dfa.make("ab", 2, 0, {1}, {"a": [1, 1], "b": [0, 1]})
    om, _, _ = syntactic_ordered_monoid(d)
    assert check_property(om, "idempotent")[0]
    z3 = cyclic(3)
    assert not check_property(z3, "locally_trivial")[0]


def test_j_trivial():
    u, _, _ = syntactic_ordered_monoid(builtin_language("U_MINUS_LANG"))
    assert check_property(u, "j_trivial")[0] in (True, False)
    s3 = s3_monoid()
    assert not check_property(s3, "j_trivial")[0]


# --- quotients, subgroups, division ----------------------------------------

def brute_commutative_congruence(m):
    """Oracle: least congruence containing xy ~ yx by naive fixpoint."""
    n = m.size
    # start from the relation xy ~ yx, then close under translation and
    # transitivity by repeated merging of explicit blocks
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            return True
        return False

    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                if union(m.mul(x, y), m.mul(y, x)):
                    changed = True
        for x in range(n):
            for y in range(n):
                if find(x) == find(y):
                    for z in range(n):
                        if union(m.mul(z, x), m.mul(z, y)):
                            changed = True
                        if union(m.mul(x, z), m.mul(y, z)):
                            changed = True
    return len({find(x) for x in range(n)})


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_commutative_quotient(name):
    om, _, _ = syntactic_ordered_monoid(builtin_language(name))
    q, proj = commutative_quotient(om.monoid)
    proj.validate()
    assert check_property(OrderedMonoid.with_equality(q), "commutative")[0]
    assert set(proj.mapping) == set(range(q.size))  # surjective
    assert q.size == brute_commutative_congruence(om.monoid)


def test_commutative_quotient_of_commutative_is_bijective():
    z3 = cyclic(3).monoid
    q, proj = commutative_quotient(z3)
    assert q.size == 3
    assert sorted(proj.mapping) == [0, 1, 2]


def test_ba2_quotient_merges_ab_ba(ba2):
    om, _, _ = ba2
    q, proj = commutative_quotient(om.monoid)
    assert proj(eval_word(om, "ab")) == proj(eval_word(om, "ba"))
    assert q.size == 2


def test_maximal_subgroups():
    s3 = s3_monoid()
    groups = maximal_subgroups(s3.monoid)
    assert [(e, len(g)) for e, g in groups] == [(0, 6)]
    assert nonabelian_subgroup_witness(s3.monoid) is not None

    ba2, _, _ = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
    assert all(len(g) == 1 for _, g in maximal_subgroups(ba2.monoid))
    assert nonabelian_subgroup_witness(ba2.monoid) is None

    z3 = cyclic(3)
    assert [(e, sorted(g)) for e, g in maximal_subgroups(z3.monoid)] == \
        [(0, [0, 1, 2])]


def test_divides():
    z1, z2, z3, z6 = cyclic(1), cyclic(2), cyclic(3), cyclic(6)
    assert divides(z1, z6)[0]
    assert divides(z6, z6)[0]
    ok, cert = divides(z2, z6)
    assert ok
    gens, mapping, closure = cert
    assert closure == frozenset({0, 3})
    assert not divides(z6, z2)[0]
    assert not divides(z3, z2)[0]
    # no size cap: L5's 31 elements are decided; the smallest submonoid
    # onto Z2 is {1, x, x^2} with x^3 = x
    big, _, _ = syntactic_ordered_monoid(builtin_language("L5"))
    assert big.size == 31
    ok, cert = divides(z2, big)
    assert ok and len(cert[2]) == 3


def test_divides_respects_order(ba2):
    om, _, _ = ba2
    assert divides(om, om)[0]
    flat = OrderedMonoid.with_equality(om.monoid)
    # the only size-6 submonoid is the whole monoid, a bijection cannot
    # send the strict pair 1 < ab to the equality order
    assert not divides(flat, om)[0]
    # an equality-ordered source imposes no order constraint
    assert divides(om, flat)[0]


def test_find_tq():
    assert find_tq(cyclic(3).monoid) is None
    assert find_tq(cyclic(1).monoid) is None
    ba2, _, _ = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
    assert find_tq(ba2.monoid) is None


def test_ideal_generated(ba2):
    om, _, ideal = ba2
    m = om.monoid
    whole = ideal_generated(om, range(m.size))
    assert whole.members == frozenset(range(m.size))
    assert whole.generating == (eval_word(m, "aa"),)
    z3 = cyclic(3)
    assert ideal_generated(z3, [1]).members == frozenset({1})
    ab = eval_word(m, "ab")
    assert ideal_generated(om, [ab]).members == frozenset({m.identity, ab})
    assert ideal_generated(om, [ab]).generating == (ab,)
    assert ideal_generated(z3, []).generating == ()


def test_serialize_monoid(ba2):
    om, _, ideal = ba2
    text = serialize_monoid(om, ideal=ideal)
    assert text.startswith("size: 6\nidentity: 0\ntable:\n")
    assert "names: _,a,b,aa,ab,ba" in text
    assert "generators: a=1,b=2" in text
    assert "order:" in text and "ideal:" in text
