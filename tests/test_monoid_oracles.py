"""Differential tests of the syntactic order, of ordered division and of
the polynomial-closure exclusion witness.

The reference oracles are the direct definitions, kept here as test-only
code: the order by context implication over all pairs of monoid elements,
division by an exhaustive search over every submonoid and every
surjective order-preserving morphism onto the divisor, and the witness by
a scan over every pair of words up to the length bound.  All are
exponential or cubic, so the random inputs are small and seeded.  Beyond
the exhaustive oracle's reach, division is checked against the unscreened
search: one closure per tuple of candidate preimages, in product order.
"""

import itertools
import math
import random
from collections import Counter, deque
from dataclasses import replace

import pytest

from regcc import monoid
from regcc.automata import CapError, CcError, Dfa, builtin_language, minimize
from regcc.classify import (
    Certificate, builtin_monoid, classify_nondet,
    find_polcom_exclusion_witness, verify_certificate,
)
from regcc.monoid import (
    FiniteMonoid, OrderedMonoid, StableOrder, _powers_map_onto,
    commutative_quotient, divides, division_map, eval_word, exponent,
    syntactic_ordered_monoid, transition_monoid,
)


def random_dfas(seed, count, states):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randrange(states[0], states[1] + 1)
        alphabet = "ab" if rng.random() < 0.7 else "abc"
        yield Dfa.make(alphabet, k, 0,
                       {s for s in range(k) if rng.random() < 0.5},
                       {a: [rng.randrange(k) for _ in range(k)] for a in alphabet})


# --- oracle: order by context implication ----------------------------------

def context_order(d):
    """x <= y iff every context (p, q) with p*y*q accepting also accepts
    p*x*q, contexts ranging over monoid elements, as context bitmasks."""
    dmin = minimize(d)
    m, _ = transition_monoid(dmin)
    n = m.size
    accepting = [dmin.run(m.names[i]) in dmin.accepting for i in range(n)]
    context = []
    for x in range(n):
        mask = 0
        for p in range(n):
            row = m.table[m.table[p][x]]
            for q in range(n):
                if accepting[row[q]]:
                    mask |= 1 << (p * n + q)
        context.append(mask)
    return tuple(tuple(context[y] & ~context[x] == 0 for y in range(n))
                 for x in range(n))


def test_order_matches_context_oracle():
    checked = 0
    for d in random_dfas(seed=20261017, count=330, states=(3, 4)):
        try:
            om, _, _ = syntactic_ordered_monoid(d, cap=150)
        except CapError:
            continue
        assert om.order.leq == context_order(d), d
        checked += 1
    assert checked >= 300


# --- oracle: exhaustive ordered division -----------------------------------

def submonoids(m):
    """Every submonoid of m, by closing every subset of its elements."""
    seen = {}
    elements = [x for x in range(m.size) if x != m.identity]
    for size in range(len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            closure = {m.identity}
            queue = deque(combo)
            closure.update(combo)
            while queue:
                x = queue.popleft()
                for y in tuple(closure):
                    for z in (m.mul(x, y), m.mul(y, x)):
                        if z not in closure:
                            closure.add(z)
                            queue.append(z)
            seen.setdefault(frozenset(closure), combo)
    return seen


def surjection(sub, gens, n_om, m_om):
    """Backtracking search for a surjective order-preserving morphism from
    the submonoid ``sub`` generated by ``gens`` onto n."""
    n_m, m_m = n_om.monoid, m_om.monoid

    def extend(img):
        img = dict(img)
        changed = True
        while changed:
            changed = False
            for x in list(img):
                for y in list(img):
                    xy = m_m.mul(x, y)
                    v = n_m.mul(img[x], img[y])
                    if xy in img:
                        if img[xy] != v:
                            return None
                    else:
                        img[xy] = v
                        changed = True
        return img

    def dfs(i, img):
        if i == len(gens):
            if len(img) != len(sub) or set(img.values()) != set(range(n_m.size)):
                return None
            if any(m_om.leq(x, y) and not n_om.leq(img[x], img[y])
                   for x in img for y in img):
                return None
            return img
        for v in range(n_m.size):
            closed = extend({**img, gens[i]: v})
            if closed is not None:
                found = dfs(i + 1, closed)
                if found is not None:
                    return found
        return None

    return dfs(0, {m_m.identity: n_m.identity})


def exhaustive_divides(n_om, m_om):
    """(verdict, smallest dividing submonoid by size then sorted elements)."""
    for closure, gens in sorted(submonoids(m_om.monoid).items(),
                                key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        if len(closure) >= n_om.size and \
                surjection(sorted(closure), gens, n_om, m_om) is not None:
            return True, closure
    return False, None


def relabeled(om, rng):
    """The same ordered monoid with its elements renumbered at random."""
    m = om.monoid
    new = list(range(m.size))
    rng.shuffle(new)
    old = sorted(range(m.size), key=new.__getitem__)
    table = tuple(tuple(new[m.table[old[i]][old[j]]] for j in range(m.size))
                  for i in range(m.size))
    leq = tuple(tuple(om.leq(old[i], old[j]) for j in range(m.size))
                for i in range(m.size))
    return OrderedMonoid(
        FiniteMonoid(m.size, new[m.identity], table,
                     tuple(m.names[x] for x in old),
                     tuple((a, new[g]) for a, g in m.generators)),
        StableOrder(leq))


Z2 = OrderedMonoid(FiniteMonoid(2, 0, ((0, 1), (1, 0)), ("", "g"), (("g", 1),)),
                   StableOrder.equality(2))


def division_cases():
    # Z2 often has several smallest closures, which tests the tie-break
    divisors = [builtin_monoid(name)[0] for name in ("BA2_PLUS", "U_PLUS")] + [Z2]
    monoids = [builtin_monoid(name)[0]
               for name in ("BA2_PLUS", "U_MINUS", "U_PLUS", "Z3")]
    # canonical numbering is by shortest word, under which the first
    # preimage tuple found tends to give the smallest closure as well
    rng = random.Random(5)
    for d in random_dfas(seed=424242, count=2000, states=(2, 5)):
        if len(monoids) == 205:
            break
        try:
            om, _, _ = syntactic_ordered_monoid(d, cap=13)
        except CapError:
            continue
        if om.size <= 12:
            monoids.append(relabeled(om, rng))
    return [(n_om, m_om) for m_om in monoids for n_om in divisors]


def test_divides_matches_exhaustive_oracle():
    cases = division_cases()
    assert len(cases) >= 600
    dividing = 0
    for n_om, m_om in cases:
        ok, cert = divides(n_om, m_om)
        want_ok, want_closure = exhaustive_divides(n_om, m_om)
        assert ok == want_ok
        if ok:
            dividing += 1
            assert cert[2] == want_closure
            assert division_map(n_om, m_om, cert[0]) == cert[1]
    assert dividing >= 10


# --- oracle: one closure per tuple of candidate preimages -------------------

def candidate_lists(n_om, m_om):
    return [[x for x in range(m_om.size)
             if _powers_map_onto(m_om.monoid, x, n_om.monoid, g)]
            for _, g in n_om.monoid.generators]


def product_divides(n_om, m_om):
    """The division search without its screen: every tuple of candidate
    preimages closed in product order, the least (closure size, sorted
    closure) kept and the first tuple on ties."""
    best = None
    for preimages in itertools.product(*candidate_lists(n_om, m_om)):
        image = division_map(n_om, m_om, preimages,
                             limit=None if best is None else best[0][0])
        if image is not None:
            key = (len(image), sorted(image))
            if best is None or key < best[0]:
                best = key, preimages, image
    if best is None:
        return False, None
    _, preimages, image = best
    return True, (preimages, image, frozenset(image))


def product_rank(n_om, m_om, preimages):
    """Position of a preimage tuple in the product of the candidate lists."""
    rank = 0
    for column, x in zip(candidate_lists(n_om, m_om), preimages):
        rank = rank * len(column) + column.index(x)
    return rank


def random_monoids(seed, count, sizes, alphabet_size=None):
    """Relabelled syntactic monoids of seeded random DFAs, |M| in ``sizes``."""
    rng = random.Random(seed)
    for d in random_dfas(seed=seed, count=count, states=(3, 5)):
        if alphabet_size is not None and len(d.alphabet) != alphabet_size:
            continue
        try:
            om, _, _ = syntactic_ordered_monoid(d, cap=sizes[1] + 1)
        except CapError:
            continue
        if om.size >= sizes[0]:
            yield relabeled(om, rng)


def test_divides_matches_product_oracle_beyond_twelve():
    divisors = [builtin_monoid(name)[0] for name in ("BA2_PLUS", "U_PLUS")] + [Z2]
    monoids = list(random_monoids(20261019, 300, (13, 80)))
    assert len(monoids) >= 80
    dividing = 0
    for m_om in monoids:
        for n_om in divisors:
            got = divides(n_om, m_om)
            assert got == product_divides(n_om, m_om), m_om.size
            dividing += got[0]
    assert 100 <= dividing < 3 * len(monoids)


@pytest.mark.parametrize("block", [1, 3])
def test_divides_matches_product_oracle_in_small_blocks(monkeypatch, block):
    # tiny blocks carry the best closure, and its lower-bound cut, across
    # many blocks of the |M| <= 12 cases
    monkeypatch.setattr(monoid, "_SCREEN_BLOCK", block)
    for n_om, m_om in division_cases():
        assert divides(n_om, m_om) == product_divides(n_om, m_om)


# two constant maps and the swap of two states, one generator each: the
# screen evaluates 40 words per tuple of three preimages
THREE_GENERATORS, _, _ = syntactic_ordered_monoid(
    Dfa.make("abc", 2, 0, {0}, {"a": [0, 0], "b": [1, 1], "c": [1, 0]}))


def test_divides_three_generator_divisor():
    assert [g for _, g in THREE_GENERATORS.monoid.generators] == [1, 2, 3]
    verdicts = []
    for m_om in random_monoids(99, 600, (1, 40), alphabet_size=3):
        got = divides(THREE_GENERATORS, m_om)
        assert got == product_divides(THREE_GENERATORS, m_om), m_om.size
        if m_om.size <= 12:
            ok, closure = exhaustive_divides(THREE_GENERATORS, m_om)
            assert got[0] == ok and (not ok or got[1][2] == closure)
        verdicts.append(got[0])
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_divides_generator_without_candidates():
    # Z2 x U1: g generates the group part, h is the idempotent zero of U1;
    # in the group Z2 only g has a candidate preimage
    table = tuple(tuple((x & 1 ^ y & 1) | (x | y) & 2 for y in range(4))
                  for x in range(4))
    z2_u1 = OrderedMonoid(
        FiniteMonoid(4, 0, table, ("", "g", "h", "gh"), (("g", 1), ("h", 2))),
        StableOrder.equality(4))
    z2_u1.monoid.validate()
    assert candidate_lists(z2_u1, Z2) == [[1], []]
    assert divides(z2_u1, Z2) == (False, None)


def test_divides_across_blocks():
    u_plus, _ = builtin_monoid("U_PLUS")
    multi_block = later_block = 0
    for m_om in random_monoids(20261019, 150, (100, 200)):
        if math.prod(map(len, candidate_lists(u_plus, m_om))) <= monoid._SCREEN_BLOCK:
            continue
        multi_block += 1
        got = divides(u_plus, m_om)
        assert got == product_divides(u_plus, m_om), m_om.size
        if got[0] and product_rank(u_plus, m_om, got[1][0]) >= monoid._SCREEN_BLOCK:
            later_block += 1
    assert multi_block >= 5 and later_block >= 1


# --- certificates and divisors ---------------------------------------------

def test_division_certificate_replays_its_preimages():
    om, _ = builtin_monoid("BA2_PLUS")
    cert = classify_nondet(om).certificate("divides_ba2_plus")
    assert cert.get("generators") == ("a", "b")
    assert cert.get("submonoid_size") == 6
    assert verify_certificate(om, cert)
    # swapping a and b is an automorphism of BA2+ that keeps its order
    swapped = Certificate.make("divides_ba2_plus", generators=("b", "a"),
                               submonoid_size=6)
    assert verify_certificate(om, swapped)


def test_division_certificate_rejects_permuted_or_corrupted_preimages():
    om, _ = builtin_monoid("U_PLUS")
    cert = classify_nondet(om).certificate("divides_u_plus")
    data = dict(cert.data)
    assert data == {"generators": ("a", "b"), "submonoid_size": 6}

    def forged(**changes):
        return Certificate.make("divides_u_plus", **{**data, **changes})

    assert verify_certificate(om, forged())
    # b is idempotent and a is not, so the swapped tuple is not functional
    assert not verify_certificate(om, forged(generators=("b", "a")))
    assert not verify_certificate(om, forged(generators=("a", "ab")))
    assert not verify_certificate(om, forged(generators=("a", "")))
    assert not verify_certificate(om, forged(submonoid_size=7))
    with pytest.raises(CcError):
        verify_certificate(om, forged(generators=("a",)))


def test_divides_rejects_non_generating_divisor():
    # g is declared as the identity, so the generators reach only {1}
    z2 = OrderedMonoid(replace(Z2.monoid, generators=(("g", 0),)), Z2.order)
    with pytest.raises(CcError):
        divides(z2, builtin_monoid("Z3")[0])


def test_divides_decides_large_monoids():
    # L5 (31 elements) is divided by neither six-element monoid, while a
    # product with BA2+ inside a larger monoid is found without any cap
    l5, _ = builtin_monoid("L5_MONOID")
    for name in ("BA2_PLUS", "U_PLUS"):
        assert divides(builtin_monoid(name)[0], l5) == (False, None)
    d = Dfa.make("abc", 4, 0, {0},
                 {"a": [1, 3, 3, 3], "b": [3, 0, 3, 3], "c": [2, 2, 0, 3]})
    om, _, _ = syntactic_ordered_monoid(d)
    assert om.size > 12
    ok, cert = divides(builtin_monoid("BA2_PLUS")[0], om)
    assert ok and len(cert[2]) == 6
    assert [eval_word(om, w) for w in ("a", "b")] == list(cert[0])


# --- oracle: polynomial-closure exclusion witness by a full word scan -------

def scan_polcom_exclusion_witness(om, max_len):
    """First (u, v), each word taken by length then lexicographically, with
    eval(u) idempotent, v holding u's letter counts and eval(u^w v u^w) not
    below eval(u^w)."""
    m = om.monoid
    letters = sorted(m.generator_map)
    words = ["".join(t) for n in range(1, max_len + 1)
             for t in itertools.product(letters, repeat=n)]
    for u in words:
        eu = eval_word(m, u)
        if m.mul(eu, eu) != eu:
            continue
        uw = m.power(eu, exponent(m))
        for v in words:
            if Counter(v) == Counter(u) and \
                    not om.leq(m.mul(m.mul(uw, eval_word(m, v)), uw), uw):
                return u, v
    return None


def commutative_quotient_condition(om, u, v):
    """u and v have one image in the maximal commutative quotient, and that
    image is idempotent."""
    m = om.monoid
    quotient, proj = commutative_quotient(m)
    pu = proj(eval_word(m, u))
    return proj(eval_word(m, v)) == pu and quotient.mul(pu, pu) == pu


def test_polcom_witness_matches_scan_oracle():
    l5, _, _ = syntactic_ordered_monoid(builtin_language("L5"))
    assert find_polcom_exclusion_witness(l5) == \
        scan_polcom_exclusion_witness(l5, 6) == ("abab", "bbaa")
    assert commutative_quotient_condition(l5, "abab", "bbaa")
    checked = found = 0
    for d in random_dfas(seed=20261018, count=200, states=(3, 5)):
        try:
            om, _, _ = syntactic_ordered_monoid(d, cap=60)
        except CapError:
            continue
        want = scan_polcom_exclusion_witness(om, 4)
        assert find_polcom_exclusion_witness(om, 4) == want, d
        checked += 1
        if want is not None:
            found += 1
            assert commutative_quotient_condition(om, *want), d
    assert checked >= 100 and found >= 10
