"""Whole-pipeline consistency on a deterministic sweep of small automata.

Every 3-state binary DFA in the sample gets its syntactic ordered monoid,
classification and certificates checked against the structural predicates
they are supposed to witness.
"""

import itertools
import random

import pytest

from regcc.automata import CapError, Dfa, accepts, minimize
from regcc.classify import classify_nondet, verify_certificate
from regcc.commcc import exact_deterministic_cc, language_problem, min_cover
from regcc.monoid import (
    check_property, is_order_ideal, syntactic_ordered_monoid,
    transition_monoid,
)

LINEAR_KINDS = {"tq", "nonabelian_subgroup", "divides_ba2_plus",
                "divides_u_plus", "shuffle"}


def sample_dfas(count=40, states=3, seed=20260808):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        trans = {a: [rng.randrange(states) for _ in range(states)]
                 for a in "ab"}
        accepting = {s for s in range(states) if rng.random() < 0.4}
        out.append(Dfa.make("ab", states, 0, accepting, trans))
    return out


@pytest.mark.parametrize("d", sample_dfas(), ids=lambda d: serial(d))
def test_pipeline_consistency(d):
    md = minimize(d)
    for tup in itertools.product("ab", repeat=5):
        w = "".join(tup)
        assert accepts(d, w) == accepts(md, w)

    om, gens, ideal = syntactic_ordered_monoid(d)
    om.monoid.validate()
    om.order.validate(om.monoid)
    assert is_order_ideal(om, ideal.members)
    same, _ = transition_monoid(md)
    assert same.table == om.monoid.table

    result = classify_nondet(om, max_witness_len=4)
    commutative = check_property(om, "commutative")[0]
    assert (result.tier == "CONSTANT") == commutative
    kinds = {c.kind for c in result.certificates}
    if result.tier == "LINEAR_LOWER":
        assert kinds & LINEAR_KINDS
    if result.tier == "UNRESOLVED_GAP":
        assert "polcom_exclusion" in kinds and not kinds & LINEAR_KINDS
    if result.tier == "LOG_LOWER":
        assert "noncommuting_pair" in kinds
        assert "polcom_exclusion" not in kinds and not kinds & LINEAR_KINDS
    for cert in result.certificates:
        assert verify_certificate(om, cert), (serial(d), cert)


def serial(d):
    return "a%s-b%s-F%s" % (
        "".join(map(str, d.moves[0])), "".join(map(str, d.moves[1])),
        "".join(map(str, sorted(d.accepting))) or "x")


def test_commutative_monoid_problem_cover_is_constant():
    # with a commutative monoid the value depends only on the two side
    # products, every element is an n-fold product for every n >= 1, so
    # the deduplicated matrix and hence the cover count never move
    from regcc.commcc import monoid_problem
    seen = 0
    for d in sample_dfas(count=60, seed=11):
        om, _, ideal = syntactic_ordered_monoid(d)
        if not check_property(om, "commutative")[0] or not ideal.members:
            continue
        if om.size ** 3 > 4096 or len(ideal.members) == om.size:
            continue
        seen += 1
        counts = {min_cover(monoid_problem(om, ideal, n), 1)[0]
                  for n in (1, 2, 3)}
        assert len(counts) == 1, (serial(d), counts)
    assert seen >= 3


def test_commutative_language_problem_cover_is_monotone():
    # the n-slot matrix embeds in the (n+1)-slot one (pad with the empty
    # letter), so restricting a cover shows the count is non-decreasing
    for d in sample_dfas(count=12, seed=7):
        om, _, _ = syntactic_ordered_monoid(d)
        if not check_property(om, "commutative")[0]:
            continue
        counts = []
        for n in (1, 2, 3):
            f = language_problem(d, n)
            if f.count(1) == 0:
                break
            counts.append(min_cover(f, 1)[0])
        assert counts == sorted(counts), (serial(d), counts)


def test_dichotomy_matches_language_problem_rows():
    # the O(1) side in matrix form: with M commutative a cell depends only
    # on the products of Alice's and of Bob's letters, so the word problem
    # has at most |M| distinct rows at every n, and a protocol sends one
    # row class and answers; with M not commutative the rows keep growing
    from test_monoid_oracles import seeded_binary_dfa
    kept = 0
    for seed in range(400):
        d = seeded_binary_dfa(seed, 3 + seed % 4)
        try:
            om, _, _ = syntactic_ordered_monoid(d, cap=60)
        except CapError:
            continue
        kept += 1
        rows = {n: len(set(language_problem(d, n).rows)) for n in range(1, 6)}
        if classify_nondet(om).tier == "CONSTANT":
            assert max(rows.values()) <= om.size, (seed, rows)
            depth = exact_deterministic_cc(language_problem(d, 5))[0]
            assert depth <= (rows[5] - 1).bit_length() + 1, (seed, depth, rows)
        else:
            assert rows[5] > rows[3], (seed, rows)
    assert kept >= 300
