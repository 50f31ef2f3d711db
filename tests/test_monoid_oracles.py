"""Differential tests of the syntactic order, of ordered division and of
the polynomial-closure exclusion witness.

The reference oracles are the direct definitions, kept here as test-only
code: the order by context implication over all pairs of monoid elements,
division by an exhaustive search over every submonoid and every
surjective order-preserving morphism onto the divisor, and the witness by
a scan over every pair of words up to the length bound.  All are
exponential or cubic, so the random inputs are small and seeded.
"""

import itertools
import random
from collections import Counter, deque
from dataclasses import replace

import pytest

from regcc.automata import CapError, CcError, Dfa, builtin_language, minimize
from regcc.classify import (
    Certificate, builtin_monoid, classify_nondet,
    find_polcom_exclusion_witness, verify_certificate,
)
from regcc.monoid import (
    FiniteMonoid, OrderedMonoid, StableOrder, divides, division_map,
    eval_word, exponent, syntactic_ordered_monoid, transition_monoid,
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


def test_polcom_witness_matches_scan_oracle():
    l5, _, _ = syntactic_ordered_monoid(builtin_language("L5"))
    assert find_polcom_exclusion_witness(l5) == \
        scan_polcom_exclusion_witness(l5, 6) == ("abab", "bbaa")
    checked = found = 0
    for d in random_dfas(seed=20261018, count=200, states=(3, 5)):
        try:
            om, _, _ = syntactic_ordered_monoid(d, cap=60)
        except CapError:
            continue
        want = scan_polcom_exclusion_witness(om, 4)
        assert find_polcom_exclusion_witness(om, 4) == want, d
        checked += 1
        found += want is not None
    assert checked >= 100 and found >= 10
