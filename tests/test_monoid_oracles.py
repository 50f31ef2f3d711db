"""Differential tests of the multiplication table, the syntactic order,
the cycle table, ordered division and the shuffle and polynomial-closure
exclusion witnesses.

The reference oracles are the direct definitions, kept here as test-only
code: the table by composing every pair of state maps, the order by
comparing state maps through the state inclusions and again by context
implication over all pairs of monoid elements, the maximal subgroups by a
pairwise inverse search in each local monoid eMe, the exponent and the
division candidates by walking powers afresh, the first T_q pair by
walking each orbit (ef)^i e, division by an exhaustive search over every
submonoid and every surjective order-preserving morphism onto the
divisor, and the witnesses by scans over every word
(and every interleaving) up to the length bound.  Most are exponential or
cubic, so the random inputs are small and seeded.  Beyond the exhaustive
oracle's reach, division is checked against the unscreened search: one
closure per tuple of candidate preimages, in product order, and the
closure exit's screen against the divisor's Cayley words evaluated letter
by letter.  Membership in DS, which refutes division by BA2+ and U+, is
checked against the identity evaluated term by term.
"""

import itertools
import math
import random
import sys
from collections import Counter, deque
from dataclasses import replace

import pytest

from regcc import monoid
from regcc.automata import (
    CapError, CcError, Dfa, builtin_language, builtin_language_names, minimize,
)
from regcc.classify import (
    BUILTIN_MONOID_NAMES, Certificate, builtin_monoid, classify_nondet,
    find_polcom_exclusion_witness, find_shuffle_witness, is_shuffle,
    verify_certificate,
)
from regcc.monoid import (
    FiniteMonoid, OrderedMonoid, StableOrder, _preimage_candidates,
    OrderIdeal, check_property, commutative_quotient, divides, division_map,
    eval_term, eval_word, exponent, find_tq, identity_counterexample,
    ideal_generated, maximal_subgroups, syntactic_ordered_monoid, tq_period,
    transition_monoid,
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


# --- oracle: table by composing state maps, order by state inclusions ------

def composed_closure(d, cap=monoid.MONOID_CAP):
    """The transition monoid of ``d`` with every table entry found by
    composing two state maps and looking the result up; returns (monoid,
    state maps)."""
    actions = {a: tuple(d.moves[k]) for k, a in enumerate(d.alphabet)}
    identity = tuple(range(d.state_count))
    index = {identity: 0}
    transforms, names = [identity], [""]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for a in sorted(actions):
            nt = tuple(actions[a][s] for s in transforms[i])
            if nt not in index:
                if len(transforms) >= cap:
                    raise CapError("over the cap")
                index[nt] = len(transforms)
                transforms.append(nt)
                names.append(names[i] + a)
                queue.append(index[nt])
    table = tuple(tuple(index[tuple(u[s] for s in t)] for u in transforms)
                  for t in transforms)
    gens = tuple(sorted((a, index[action]) for a, action in actions.items()))
    return FiniteMonoid(len(transforms), 0, table, tuple(names), gens), transforms


def composed_ordered_monoid(d, cap=monoid.MONOID_CAP):
    """(ordered monoid, accepting ideal) of the minimal DFA of ``d``, the
    order compared state by state through the state inclusions."""
    dmin = minimize(d)
    m, transforms = composed_closure(dmin, cap)
    incl = monoid._state_inclusion(dmin)
    states = range(dmin.state_count)
    leq = tuple(tuple(all(incl[ty[s]][tx[s]] for s in states) for ty in transforms)
                for tx in transforms)
    members = frozenset(i for i, t in enumerate(transforms)
                        if t[dmin.initial] in dmin.accepting)
    maximal = tuple(x for x in sorted(members)
                    if not any(y != x and leq[x][y] for y in members))
    return OrderedMonoid(m, StableOrder(leq)), OrderIdeal(members, maximal)


def test_table_and_order_match_composition_oracle():
    checked = 0
    for d in random_dfas(seed=20261020, count=240, states=(2, 6)):
        try:
            want = composed_closure(d, cap=300)[0]
        except CapError:
            with pytest.raises(CapError):
                transition_monoid(d, cap=300)
        else:
            assert transition_monoid(d, cap=300)[0] == want, d
        try:
            om, gens, ideal = syntactic_ordered_monoid(d, cap=300)
        except CapError:
            continue
        assert (om, ideal) == composed_ordered_monoid(d), d
        assert gens == dict(om.monoid.generators)
        checked += 1
    assert checked >= 200


def seeded_binary_dfa(seed, states):
    rng = random.Random(seed)
    return Dfa.make("ab", states, 0, {s for s in range(states) if rng.random() < 0.5},
                    {a: [rng.randrange(states) for _ in range(states)] for a in "ab"})


def test_table_and_order_match_composition_oracle_beyond_a_thousand():
    d = seeded_binary_dfa(186, 7)
    om, _, ideal = syntactic_ordered_monoid(d)
    assert om.size == 1011
    assert (om, ideal) == composed_ordered_monoid(d)
    # one int object per element, as in a table built from the index dict
    assert len({id(x) for row in om.monoid.table for x in row}) == om.size


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
# Z4's least words run to g^3, and division by Z4 takes the copy search,
# which follows Z4's Cayley tree to any depth
Z4 = OrderedMonoid(
    FiniteMonoid(4, 0, tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4)),
                 ("", "g", "gg", "ggg"), (("g", 1),)),
    StableOrder.equality(4))


def division_cases():
    # Z2 often has several smallest closures, which tests the tie-break
    divisors = [builtin_monoid(name)[0] for name in ("BA2_PLUS", "U_PLUS")] + [Z2, Z4]
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


@pytest.fixture
def exits(monkeypatch):
    """``divides`` that counts the exit each call takes, and keeps the last
    one as ``exit``: ``ds`` before any search, ``copy`` from the copy
    search, ``closure`` from closing the screen's survivors, ``larger``
    when that closure is larger than the divisor, and ``refuted`` after
    both searches."""
    calls = []
    for name in ("_least_copy", "_screened_blocks"):
        def spy(*args, real=getattr(monoid, name), name=name):
            result = real(*args)
            calls.append((name, result))
            return result
        monkeypatch.setattr(monoid, name, spy)
    counts = Counter()

    def counted(n_om, m_om):
        calls.clear()
        got = divides(n_om, m_om)
        if not calls:
            assert got == (False, None)
            exit = "ds"
        elif calls[0][1] is not None:
            assert [name for name, _ in calls] == ["_least_copy"]
            assert len(got[1][2]) == n_om.size
            exit = "copy"
        elif got[0]:
            exit = "larger" if len(got[1][2]) > n_om.size else "closure"
        else:
            exit = "refuted"
        counts[exit] += 1
        counted.exit = exit
        return got

    counted.counts = counts
    return counted


def test_divides_matches_exhaustive_oracle(exits):
    cases = division_cases()
    assert len(cases) >= 800
    dividing, copies = Counter(), Counter()
    for n_om, m_om in cases:
        ok, cert = exits(n_om, m_om)
        want_ok, want_closure = exhaustive_divides(n_om, m_om)
        assert ok == want_ok
        if ok:
            dividing[n_om is Z4] += 1
            copies[n_om is Z4] += exits.exit == "copy"
            assert cert[2] == want_closure
            assert division_map(n_om, m_om, cert[0]) == cert[1]
    assert dividing[False] >= 10 and dividing[True] >= 1
    # the closure exit never returns a closure of the divisor's size: that
    # one is a copy, so Z4 divides through the copy search like the rest
    assert exits.counts["closure"] == 0, exits.counts
    assert exits.counts["larger"] >= 1, exits.counts
    assert set(exits.counts) == {"ds", "copy", "larger", "refuted"}, exits.counts
    assert copies[True] == dividing[True], (copies, dividing)


def test_copy_answers_run_no_closure(monkeypatch):
    # a copy's map is read off the copy search's values, so division_map
    # runs only in the closure exit, never on a copy answer
    closed, copies = [], []

    def closing(*args, real=monoid.division_map, **kwargs):
        closed.append(args)
        return real(*args, **kwargs)

    def copying(*args, real=monoid._least_copy):
        copies.append(real(*args))
        return copies[-1]

    monkeypatch.setattr(monoid, "division_map", closing)
    monkeypatch.setattr(monoid, "_least_copy", copying)
    answered = 0
    for n_om, m_om in division_cases():
        closed.clear()
        copies.clear()
        got = divides(n_om, m_om)
        if copies and copies[0] is not None:
            assert got[0] and not closed
            answered += 1
    assert answered >= 10


def test_copy_search_follows_a_tree_past_the_recursion_limit(monkeypatch):
    # the chain 1, g, ..., g^k = g^(k+1) has least words as long as its
    # size, so the copy search evaluates m(u_e) down a path that deep
    k = sys.getrecursionlimit() + 10
    table = tuple(tuple(min(i + j, k) for j in range(k + 1)) for i in range(k + 1))
    chain = OrderedMonoid.with_equality(
        FiniteMonoid(k + 1, 0, table, tuple("g" * i for i in range(k + 1)), (("g", 1),)))
    monkeypatch.setattr(monoid, "division_map", None)
    ok, (preimages, image, closure) = divides(chain, chain)
    assert ok and preimages == (1,) and image == {x: x for x in range(k + 1)}


def test_in_ds_matches_identity_oracle(monkeypatch):
    # one row per band, so a failing pair in any row is found in its band
    monkeypatch.setattr(monoid, "_DS_BAND", 1)
    monoids = {id(m_om): m_om for _, m_om in division_cases()}.values()
    in_ds = 0
    for m_om in monoids:
        fresh = replace(m_om.monoid)
        want = identity_counterexample(fresh, "((xy)^w(yx)^w(xy)^w)^w", "(xy)^w") is None
        assert fresh.in_ds == want, m_om.size
        in_ds += want
        if want:
            for name in ("BA2_PLUS", "U_PLUS"):
                assert product_divides(builtin_monoid(name)[0], m_om) == (False, None)
    assert in_ds >= 20 and len(monoids) - in_ds >= 10
    assert not any(builtin_monoid(name)[0].monoid.in_ds for name in ("BA2_PLUS", "U_PLUS"))


# --- oracle: power walks and the pairwise inverse search --------------------

def pairwise_maximal_subgroups(m):
    """For each idempotent e, the elements g of eMe with some h in eMe such
    that gh = hg = e."""
    out = []
    for e in m.idempotents():
        local = sorted({m.mul(m.mul(e, x), e) for x in range(m.size)})
        units = set()
        for g in local:
            for h in local:
                if m.mul(g, h) == e and m.mul(h, g) == e:
                    units.add(g)
                    break
        out.append((e, frozenset(units)))
    return out


def walk_exponent(m):
    """The least multiple of the lcm of the cycle periods that is at least
    the largest cycle entry index, each element's powers walked afresh."""
    lcm = 1
    max_index = 1
    for x in range(m.size):
        seen = {}
        p = x
        k = 1
        while p not in seen:
            seen[p] = k
            p = m.table[p][x]
            k += 1
        period = k - seen[p]
        index = seen[p]
        lcm = lcm * period // math.gcd(lcm, period)
        max_index = max(max_index, index)
    return lcm * ((max_index + lcm - 1) // lcm)


def powers_map_onto(m, x, n, g):
    """True iff x^k -> g^k is a well-defined map of <x> onto <g>, by
    walking the pairs (x^k, g^k) until x^k repeats."""
    seen = {}
    px, pg = m.identity, n.identity
    while px not in seen:
        seen[px] = pg
        px, pg = m.mul(px, x), n.mul(pg, g)
    # the pair sequence is periodic from here iff the images agree
    return seen[px] == pg


def candidate_lists(n_om, m_om):
    return [[x for x in range(m_om.size)
             if powers_map_onto(m_om.monoid, x, n_om.monoid, g)]
            for _, g in n_om.monoid.generators]


CYCLE_DIVISORS = [builtin_monoid(name)[0] for name in ("BA2_PLUS", "U_PLUS", "S3", "Z3")]


def check_cycle_table(om):
    """Every reader of the cycle table against the walks and the pairwise
    search; returns the number of candidate decisions checked."""
    m = om.monoid
    w = walk_exponent(m)
    assert exponent(m) == w
    assert maximal_subgroups(m) == pairwise_maximal_subgroups(m)
    for x in range(m.size):
        for k in range(3):
            assert eval_term(m, "a^(w+%d)" % k, {"a": x}) == m.power(x, w + k)
    aperiodic = next(((x,) for x in range(m.size)
                      if m.mul(m.power(x, w), x) != m.power(x, w)), None)
    group = next(((x,) for x in range(m.size) if m.power(x, w) != m.identity), None)
    assert check_property(om, "aperiodic") == (aperiodic is None, aperiodic)
    assert check_property(om, "group") == (group is None, group)
    decisions = 0
    for n_om in CYCLE_DIVISORS:
        assert _preimage_candidates(m, n_om.monoid) == candidate_lists(n_om, om)
        decisions += m.size * len(n_om.monoid.generators)
    return decisions


def test_cycle_table_matches_walk_and_pairwise_oracles():
    monoids = list(itertools.islice(random_monoids(20261024, 600, (1, 200)), 320))
    assert len(monoids) >= 300
    decisions = sum(check_cycle_table(om) for om in monoids)
    # subgroups at idempotents other than the identity, and non-trivial ones
    groups = [g for om in monoids for e, g in maximal_subgroups(om.monoid)
              if e != om.monoid.identity and len(g) > 1]
    assert len(groups) >= 100
    assert decisions >= 40_000


@pytest.mark.parametrize("name", ["S3", "Z3", "BA2_PLUS", "U_PLUS", "TQ_EXAMPLE"])
def test_cycle_table_on_named_monoids(name):
    om, _ = builtin_monoid(name, q=3) if name == "TQ_EXAMPLE" else builtin_monoid(name)
    check_cycle_table(om)


def test_cycle_table_beyond_a_thousand():
    om, _, _ = syntactic_ordered_monoid(seeded_binary_dfa(186, 7))
    assert om.size == 1011
    check_cycle_table(om)


# --- oracle: the T_q orbit walk ---------------------------------------------

def orbit_tq_period(m, e, f):
    """q when the orbit (ef)^i e, i >= 1, of idempotents e and f first
    returns to e at i = q > 1, else None, by walking the orbit."""
    ef = m.mul(e, f)
    x, seen = m.mul(ef, e), [e]
    while x not in seen:
        seen.append(x)
        x = m.mul(ef, x)
    return len(seen) if x == e and len(seen) > 1 else None


def orbit_find_tq(m):
    """The first idempotent pair with an orbit period, as (q, e, f)."""
    idems = m.idempotents()
    return next(((q, e, f) for e in idems for f in idems
                 if (q := orbit_tq_period(m, e, f)) is not None), None)


def test_find_tq_matches_orbit_walk():
    monoids = [om.monoid for om in
               itertools.islice(random_monoids(20261028, 700, (1, 200)), 400)]
    monoids += [builtin_monoid("TQ_EXAMPLE", q=q)[0].monoid for q in (2, 3, 4, 5)]
    found = pairs = 0
    for m in monoids:
        want = orbit_find_tq(m)
        assert find_tq(m) == want
        found += want is not None
        # every pair: the cycle-table reading is the orbit's period
        for e in m.idempotents():
            for f in m.idempotents():
                q = orbit_tq_period(m, e, f)
                assert tq_period(m, e, f) == q
                index, period, omega = m.cycles[m.mul(m.mul(e, f), e)]
                assert (index == 1 and period > 1 and omega == e) == (q is not None)
                assert q is None or q == period
                pairs += q is not None
    assert found >= 30 and pairs >= 300


# --- oracle: one closure per tuple of candidate preimages -------------------


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



def test_ideal_generated_matches_its_definition():
    # syntactic monoids hand their order array over; relabelled ones build
    # it from the tuples
    rng = random.Random(23)
    monoids = [syntactic_ordered_monoid(d)[0]
               for d in random_dfas(seed=23, count=20, states=(2, 5))]
    monoids += list(random_monoids(seed=24, count=30, sizes=(2, 80)))
    for om in monoids:
        for _ in range(4):
            gens = rng.sample(range(om.size), rng.randint(0, min(3, om.size)))
            members = {x for x in range(om.size) if any(om.leq(x, g) for g in gens)}
            maximal = sorted(x for x in members
                             if not any(y != x and om.leq(x, y) for y in members))
            ideal = ideal_generated(om, gens)
            assert ideal.members == members
            assert ideal.generating == tuple(maximal)
            assert all(type(x) is int for x in ideal.members | set(ideal.generating))


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
    # tiny blocks carry the best closure and its lower-bound cut, and the
    # least copy, across many blocks of the |M| <= 12 cases
    monkeypatch.setattr(monoid, "_block_tuples", lambda width: block)
    for n_om, m_om in division_cases():
        assert divides(n_om, m_om) == product_divides(n_om, m_om)


# two constant maps and the swap of two states, one generator each: the
# screen evaluates the 13 words of its Cayley graph, 4 least words and 9
# relations, per tuple of three preimages
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


def cayley_words(n):
    """The least word of each element of n, found by a shortlex scan of
    every word, and each least word followed by one more letter."""
    letters = [a for a, _ in n.generators]
    least = {}
    for length in itertools.count():
        for word in map("".join, itertools.product(letters, repeat=length)):
            least.setdefault(eval_word(n, word), word)
        if len(least) == n.size:
            return sorted({u + a for u in least.values() for a in [""] + letters})


def screened_tuples(n_om, m_om):
    """(preimages, count of distinct m-values) in product order for the
    tuples on which no two of n's Cayley words agree in m but differ in
    n, each word evaluated letter by letter."""
    n, m = n_om.monoid, m_om.monoid
    letters = [a for a, _ in n.generators]
    words = [(w, eval_word(n, w)) for w in cayley_words(n)]
    for preimages in itertools.product(*candidate_lists(n_om, m_om)):
        assignment = dict(zip(letters, preimages))
        image = {}
        if all(image.setdefault(eval_word(m, w, assignment), v) == v for w, v in words):
            yield preimages, len(image)


def test_cayley_screen_keeps_every_division():
    # the screen is the direct evaluation of n's Cayley words, and it is
    # sound: every tuple whose closure is a division map survives it, with
    # a count of distinct m-values at most that closure's size
    divisors = [builtin_monoid(name)[0] for name in ("BA2_PLUS", "U_PLUS")]
    divisors += [Z2, Z4, THREE_GENERATORS]
    dropped = divisions = larger = 0
    for m_om in random_monoids(31, 200, (6, 40)):
        for n_om in divisors:
            candidates = candidate_lists(n_om, m_om)
            screened = [(tuple(t), bound) for tuples, lower
                        in monoid._screened_blocks(m_om.monoid, n_om.monoid, candidates)
                        for t, bound in zip(tuples.tolist(), lower.tolist())]
            assert screened == list(screened_tuples(n_om, m_om)), (n_om.size, m_om.size)
            bounds = dict(screened)
            dropped += math.prod(map(len, candidates)) - len(bounds)
            for preimages in itertools.product(*candidates):
                image = division_map(n_om, m_om, preimages)
                if image is not None:
                    assert bounds[preimages] <= len(image)
                    divisions += 1
                    larger += len(image) > n_om.size
    assert dropped >= 10000 and divisions >= 1000 and larger >= 100, (dropped, divisions, larger)


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


def test_divides_across_blocks(monkeypatch):
    block = 2048
    monkeypatch.setattr(monoid, "_block_tuples", lambda width: block)
    u_plus, _ = builtin_monoid("U_PLUS")
    multi_block = later_block = 0
    for m_om in random_monoids(20261019, 150, (100, 200)):
        if math.prod(map(len, candidate_lists(u_plus, m_om))) <= block:
            continue
        multi_block += 1
        got = divides(u_plus, m_om)
        assert got == product_divides(u_plus, m_om), m_om.size
        if got[0] and product_rank(u_plus, m_om, got[1][0]) >= block:
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


def test_divides_pins_certificates_beyond_two_thousand():
    # both divisions are copies: the relation pass walks the |M|^2
    # product, and one closure replays each winner
    om, _, _ = syntactic_ordered_monoid(seeded_binary_dfa(91, 7))
    assert om.size == 2611 and not om.monoid.in_ds
    for name, preimages in (("BA2_PLUS", (322, 887)), ("U_PLUS", (49, 1237))):
        ok, cert = divides(builtin_monoid(name)[0], om)
        assert ok and cert[0] == preimages and len(cert[2]) == 6


# --- oracle: commutativity decided on the generators alone -----------------

def first_noncommuting_generators(om):
    """First pair x < y of distinct generator elements with xy != yx."""
    m = om.monoid
    gens = sorted(set(m.generator_map.values()))
    return next(((x, y) for x, y in itertools.combinations(gens, 2)
                 if m.mul(x, y) != m.mul(y, x)), None)


def test_commutative_witness_is_the_first_noncommuting_generator_pair():
    # unrelabelled monoids only: relabelling can move the generators
    monoids = [syntactic_ordered_monoid(builtin_language(name))[0]
               for name in builtin_language_names()]
    monoids += [builtin_monoid(name, q=3)[0] if name == "TQ_EXAMPLE"
                else builtin_monoid(name)[0] for name in BUILTIN_MONOID_NAMES]
    monoids += [om for seed in (20261019, 20261020, 20261024)
                for _, om in small_monoids(seed, 120)]
    found = three_letters = 0
    for om in monoids:
        commutative, pair = check_property(om, "commutative")
        assert pair == first_noncommuting_generators(om), om.monoid.names
        assert commutative == (pair is None)
        found += pair is not None
        three_letters += pair is not None and len(om.monoid.generator_map) == 3
    assert len(monoids) >= 300 and found >= 150 and three_letters >= 40


# --- oracle: polynomial-closure exclusion witness by a full word scan -------

def scan_polcom_exclusion_witness(om, max_len):
    """First (u, v), each word taken by length then lexicographically, with
    eval(u) idempotent, v holding u's letter counts and eval(u^w v u^w) not
    below eval(u^w)."""
    m = om.monoid
    letters = sorted(m.generator_map)
    words = ["".join(t) for n in range(1, max_len + 1)
             for t in itertools.product(letters, repeat=n)]
    counts = {w: Counter(w) for w in words}
    for u in words:
        eu = eval_word(m, u)
        if m.mul(eu, eu) != eu:
            continue
        uw = m.power(eu, exponent(m))
        for v in words:
            if counts[v] == counts[u] and \
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


def small_monoids(seed, count):
    """Syntactic monoids of seeded random DFAs with |M| <= 60."""
    for d in random_dfas(seed=seed, count=count, states=(3, 5)):
        try:
            yield d, syntactic_ordered_monoid(d, cap=60)[0]
        except CapError:
            continue


def test_polcom_witness_matches_scan_oracle():
    l5, _, _ = syntactic_ordered_monoid(builtin_language("L5"))
    assert find_polcom_exclusion_witness(l5) == \
        scan_polcom_exclusion_witness(l5, 6) == ("abab", "bbaa")
    assert commutative_quotient_condition(l5, "abab", "bbaa")
    checked = found = 0
    for d, om in small_monoids(20261018, 200):
        want = scan_polcom_exclusion_witness(om, 4)
        assert find_polcom_exclusion_witness(om, 4) == want, d
        checked += 1
        if want is not None:
            found += 1
            assert commutative_quotient_condition(om, *want), d
    assert checked >= 100 and found >= 10


def length_eight_monoids(seed):
    """Sixteen two-letter small monoids with at least three elements: the
    scans at length 8 compare every pair of words (every interleaving)."""
    picked = ((d, om) for d, om in small_monoids(seed, 400)
              if len(d.alphabet) == 2 and om.size >= 3)
    return list(itertools.islice(picked, 16))


def test_polcom_witness_matches_scan_oracle_at_length_eight():
    found = 0
    for d, om in length_eight_monoids(20261021):
        want = scan_polcom_exclusion_witness(om, 8)
        assert find_polcom_exclusion_witness(om, 8) == want, d
        found += want is not None
    assert 3 <= found < 16


# --- oracle: shuffle witness by listing every interleaving ------------------

def shuffles(w1, w2):
    """All distinct interleavings, first-word-first deterministic order."""
    seen = set()

    def rec(i, j, acc):
        if i == len(w1) and j == len(w2):
            if acc not in seen:
                seen.add(acc)
                yield acc
            return
        if i < len(w1):
            yield from rec(i + 1, j, acc + w1[i])
        if j < len(w2):
            yield from rec(i, j + 1, acc + w2[j])

    yield from rec(0, 0, "")


def test_shuffles_enumeration():
    assert list(shuffles("a", "b")) == ["ab", "ba"]
    assert set(shuffles("ab", "ab")) == {"aabb", "abab"}
    assert set(shuffles("ab", "ba")) == {"abba", "abab", "baab", "baba"}
    for w1, w2 in (("ab", "ba"), ("a", "bb")):
        for v in shuffles(w1, w2):
            assert is_shuffle(v, w1, w2)


def scan_shuffle_witness(om, max_len):
    """First (u, w1, w2, v): u by length then lexicographically, every
    split u = w1 w2 including the empty ones, v over the distinct
    interleavings of w1 and w2 in first-word-first order; eval(u)
    idempotent and eval(u v u) not below eval(u)."""
    m = om.monoid
    letters = sorted(m.generator_map)
    for n in range(1, max_len + 1):
        for t in itertools.product(letters, repeat=n):
            u = "".join(t)
            eu = eval_word(m, u)
            if m.mul(eu, eu) != eu:
                continue
            for i in range(len(u) + 1):
                w1, w2 = u[:i], u[i:]
                for v in shuffles(w1, w2):
                    if not om.leq(m.mul(m.mul(eu, eval_word(m, v)), eu), eu):
                        return u, w1, w2, v
    return None


def test_shuffle_witness_matches_scan_oracle_on_named_monoids():
    named = [syntactic_ordered_monoid(builtin_language(name))[0]
             for name in ("BA2_LANG", "U_PLUS_LANG", "L5")]
    named.append(builtin_monoid("S3")[0])
    witnesses = [find_shuffle_witness(om) for om in named]
    assert witnesses == [scan_shuffle_witness(om, 6) for om in named]
    assert witnesses[0] == ("ab", "a", "b", "ba") and witnesses[2] is None
    assert witnesses[1] is not None and witnesses[3] is not None


def test_shuffle_witness_matches_scan_oracle():
    checked, found, lengths = 0, 0, set()
    for d, om in small_monoids(20261022, 230):
        max_len = 4 + checked % 3
        want = scan_shuffle_witness(om, max_len)
        assert find_shuffle_witness(om, max_len) == want, (d, max_len)
        checked += 1
        if want is not None:
            found += 1
            lengths.add(len(want[0]))
    assert checked >= 150 and found >= 50 and len(lengths) >= 3


def test_shuffle_witness_matches_scan_oracle_at_length_eight():
    found = 0
    for d, om in length_eight_monoids(20261023):
        want = scan_shuffle_witness(om, 8)
        assert find_shuffle_witness(om, 8) == want, d
        found += want is not None
    assert 3 <= found < 16
