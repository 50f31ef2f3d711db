"""Finite ordered monoids.

Monoids are stored as explicit multiplication tables with canonical element
names (shortest generator words, lexicographic tie-break).  The syntactic
ordered monoid of a regular language is computed from the minimal automaton:
its elements are the state maps of words, its order is context implication
of membership (read off language inclusions between states), and its
accepting set is an order ideal.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .automata import EPSILON, CapError, CcError, Dfa, minimize

MONOID_CAP = 5000
# element pairs per band of the DS identity check
_DS_BAND = 1 << 16


@dataclass(frozen=True)
class FiniteMonoid:
    """Multiplication table plus canonical names and generator letters."""

    size: int
    identity: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    generators: tuple[tuple[str, int], ...] = ()

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def product(self, elements) -> int:
        p = self.identity
        for x in elements:
            p = self.table[p][x]
        return p

    def power(self, x: int, k: int) -> int:
        p = self.identity
        for _ in range(k):
            p = self.table[p][x]
        return p

    @functools.cached_property
    def generator_map(self) -> dict[str, int]:
        """Letter -> generator element, built once per monoid; callers only
        read it."""
        return dict(self.generators)

    @functools.cached_property
    def table_array(self) -> np.ndarray:
        """The table as an int32 array, built once per monoid (the closure
        hands over its own); callers only read it."""
        return np.array(self.table, dtype=np.int32)

    @functools.cached_property
    def cycles(self) -> tuple[tuple[int, int, int], ...]:
        """(index, period, x^w) for each element x, built once per monoid.

        One walk x, x^2, ... stops at the first repeat x^(i+p) = x^i: i >= 1
        is the index and p the period.  x^i .. x^(i+p-1) is a cyclic group
        whose identity x^w is the power x^j in it with p dividing j.  So x
        lies in a subgroup iff its index is 1, and is a unit iff x^w = 1.
        """
        table = self.table
        out = []
        for x in range(self.size):
            powers, seen = [x], {x: 1}       # powers[k - 1] = x^k
            p = table[x][x]
            while p not in seen:
                powers.append(p)
                seen[p] = len(powers)
                p = table[p][x]
            index = seen[p]
            period = len(powers) + 1 - index
            # the least multiple of the period that is at least the index
            omega = powers[-(-index // period) * period - 1]
            out.append((index, period, omega))
        return tuple(out)

    @functools.cached_property
    def in_ds(self) -> bool:
        """Whether the monoid lies in DS: ((xy)^w (yx)^w (xy)^w)^w = (xy)^w
        for all x, y.  Gathers on ``table_array`` and the x^w column of
        ``cycles``, computed once per monoid, a band of about _DS_BAND
        pairs at a time so that a failing monoid stops at its first bad
        band."""
        table = self.table_array
        omega = np.array([c[2] for c in self.cycles], dtype=np.int32)
        step = max(1, _DS_BAND // self.size)
        for x in range(0, self.size, step):
            xy = omega[table[x:x + step]]        # (xy)^w at [x, y]
            yx = omega[table[:, x:x + step]].T   # (yx)^w at [x, y]
            if not (omega[table[table[xy, yx], xy]] == xy).all():
                return False
        return True

    @functools.cached_property
    def divisor_words(self):
        """Words over the generators, for the division search with this
        monoid as the divisor; built once per monoid.

        Returns (words, values, cayley, generated).  ``words`` lists every
        word of length 1 .. _SCREEN_LEN in shortlex order as (prefix index,
        generator index), where index 0 is the empty word; ``values[j]``
        is the value of word j, ``values[0]`` the identity.  ``cayley`` is
        (tree, relations), the right Cayley graph as the shortlex BFS of
        ``_canonical_names`` walks it: with u_e the least word of e, the
        edge e --a--> ea is tree[ea] = (e, a) when u_e a is u_(ea), and
        the relation (e, a, ea) when it is not.  ``generated`` says whether
        the generators generate the monoid, that is, whether the tree
        reaches every element.
        """
        gens = [g for _, g in self.generators]
        words, values, frontier = [], [self.identity], [0]
        for _ in range(_SCREEN_LEN):
            grown = []
            for w in frontier:
                for i, g in enumerate(gens):
                    words.append((w, i))
                    values.append(self.table[values[w]][g])
                    grown.append(len(values) - 1)
            frontier = grown
        _, tree, relations = _canonical_names(self.table, self.identity,
                                              self.generators, self.size)
        generated = len(tree) == self.size - 1
        return words, np.array(values, dtype=np.int32), (tree, relations), generated

    def idempotents(self) -> list[int]:
        return [x for x in range(self.size) if self.table[x][x] == x]

    def name_of(self, x: int) -> str:
        return self.names[x] or EPSILON

    def validate(self):
        n = self.size
        if not (0 <= self.identity < n):
            raise CcError("identity out of range")
        for x in range(n):
            if self.table[self.identity][x] != x or self.table[x][self.identity] != x:
                raise CcError("identity law fails at element %d" % x)
        for x in range(n):
            for y in range(n):
                xy = self.table[x][y]
                for z in range(n):
                    if self.table[xy][z] != self.table[x][self.table[y][z]]:
                        raise CcError("associativity fails at (%d,%d,%d)" % (x, y, z))


@dataclass(frozen=True)
class StableOrder:
    """Boolean matrix of a stable partial order: leq[x][y] iff x <= y."""

    leq: tuple[tuple[bool, ...], ...]

    @classmethod
    def equality(cls, size: int) -> "StableOrder":
        return cls(tuple(tuple(i == j for j in range(size)) for i in range(size)))

    def is_equality(self) -> bool:
        return all(not v for i, row in enumerate(self.leq)
                   for j, v in enumerate(row) if i != j)

    def validate(self, m: FiniteMonoid):
        n = len(self.leq)
        if n != m.size or any(len(row) != n for row in self.leq):
            raise CcError("order dimensions do not match the monoid")
        for x in range(n):
            if not self.leq[x][x]:
                raise CcError("order not reflexive at %d" % x)
            for y in range(n):
                if x != y and self.leq[x][y] and self.leq[y][x]:
                    raise CcError("order not antisymmetric at (%d,%d)" % (x, y))
                if not self.leq[x][y]:
                    continue
                for z in range(n):
                    if self.leq[y][z] and not self.leq[x][z]:
                        raise CcError("order not transitive at (%d,%d,%d)" % (x, y, z))
                    if not self.leq[m.mul(z, x)][m.mul(z, y)]:
                        raise CcError("order not left-stable at (%d,%d) by %d" % (x, y, z))
                    if not self.leq[m.mul(x, z)][m.mul(y, z)]:
                        raise CcError("order not right-stable at (%d,%d) by %d" % (x, y, z))


@dataclass(frozen=True)
class OrderedMonoid:
    monoid: FiniteMonoid
    order: StableOrder

    @property
    def size(self) -> int:
        return self.monoid.size

    def leq(self, x: int, y: int) -> bool:
        return self.order.leq[x][y]

    @functools.cached_property
    def leq_array(self) -> np.ndarray:
        """The order as a boolean array, built once per ordered monoid
        (``syntactic_ordered_monoid`` hands over its own); callers only
        read it."""
        return np.array(self.order.leq, dtype=bool)

    @classmethod
    def with_equality(cls, m: FiniteMonoid) -> "OrderedMonoid":
        return cls(m, StableOrder.equality(m.size))


@dataclass(frozen=True)
class OrderIdeal:
    """Downward-closed element set with a canonical generating set."""

    members: frozenset[int]
    generating: tuple[int, ...]


@dataclass(frozen=True)
class MonoidMorphism:
    """Element map between monoid tables; ``mapping[x]`` is the image of x."""

    source: FiniteMonoid
    target: FiniteMonoid
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def validate(self):
        if self.mapping[self.source.identity] != self.target.identity:
            raise CcError("morphism does not preserve the identity")
        for x in range(self.source.size):
            for y in range(self.source.size):
                if self.mapping[self.source.mul(x, y)] != \
                        self.target.mul(self.mapping[x], self.mapping[y]):
                    raise CcError("morphism does not preserve products at (%d,%d)" % (x, y))


def _transition_closure(d: Dfa, cap: int):
    """BFS closure of the state maps of ``d`` under right multiplication by
    letters (the right Cayley graph, as in Froidure and Pin's method).

    Returns (monoid, letter morphism, state maps).  Discovery order is by
    word length then letter order, so names are canonical shortest words.
    The closure records each element's right product by every letter and
    the (parent, letter) that discovered it.  Element y = parent * a gives
    x * y = (x * parent) * a, so column y of the table is the letter-a
    product of column ``parent``: one array gather per element, O(|M|^2)
    with no |Q| factor.
    """
    actions = {a: tuple(d.moves[k]) for k, a in enumerate(d.alphabet)}
    identity = tuple(range(d.state_count))
    index = {identity: 0}
    transforms = [identity]
    names = [""]
    letters = sorted(actions)
    right = {a: [] for a in letters}
    parents = [(0, None)]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        t = transforms[i]
        for a in letters:
            action = actions[a]
            nt = tuple(action[s] for s in t)
            if nt not in index:
                if len(transforms) >= cap:
                    raise CapError("transition monoid exceeds the cap of %d elements" % cap)
                index[nt] = len(transforms)
                transforms.append(nt)
                names.append(names[i] + a)
                parents.append((i, a))
                queue.append(index[nt])
            right[a].append(index[nt])
    gens = {a: index[actions[a]] for a in letters}
    n = len(transforms)
    right = {a: np.array(r, dtype=np.int32) for a, r in right.items()}
    # columns[y] is column y of the table; parents precede their children
    columns = np.empty((n, n), dtype=np.int32)
    columns[0] = np.arange(n)
    for y in range(1, n):
        parent, a = parents[y]
        columns[y] = right[a][columns[parent]]
    # read row by row through an object array, the rows share one int
    # object per element instead of holding |M|^2 distinct ones
    elements = np.array(range(n), dtype=object)
    table = tuple(tuple(elements[row].tolist()) for row in columns.T)
    m = FiniteMonoid(n, 0, table, tuple(names), tuple(sorted(gens.items())))
    # columns.T is the table in int32, so it fills the cache that would
    # otherwise be rebuilt from the tuples
    m.__dict__["table_array"] = columns.T
    return m, gens, transforms


def transition_monoid(d: Dfa, cap: int = MONOID_CAP):
    """Transformation monoid of the automaton and the letter morphism."""
    m, gens, _ = _transition_closure(d, cap)
    return m, gens


def _state_inclusion(d: Dfa):
    """incl[p][q] iff the language accepted from p is contained in the one
    accepted from q: the greatest fixpoint over state pairs, seeded by
    acceptance and refined over letters."""
    states = range(d.state_count)
    incl = [[p not in d.accepting or q in d.accepting for q in states]
            for p in states]
    changed = True
    while changed:
        changed = False
        for p in states:
            for q in states:
                if incl[p][q] and not all(incl[move[p]][move[q]] for move in d.moves):
                    incl[p][q] = False
                    changed = True
    return incl


def syntactic_ordered_monoid(d: Dfa, cap: int = MONOID_CAP):
    """Syntactic ordered monoid of the language of ``d``.

    Minimizes first and takes the transition monoid.  The order is the
    syntactic one: x <= y iff every context (p, q) with p*y*q accepting also
    has p*x*q accepting.  In the minimal automaton every state s is reached
    by some prefix p, so this holds iff the language accepted from y(s) is
    contained in the one accepted from x(s) for every state s.  The state
    inclusions are a greatest fixpoint over state pairs.  With the state
    maps as an |M| x |Q| array T, row x of the order is
    ``incl[T, T[x]].all(axis=1)``: O(|M|^2 |Q|) comparisons, done as one
    array operation per row.
    Returns (ordered monoid, letter morphism, accepting order ideal).
    """
    dmin = minimize(d)
    m, gens, transforms = _transition_closure(dmin, cap)
    incl = np.array(_state_inclusion(dmin), dtype=bool)
    maps = np.array(transforms, dtype=np.intp)
    leq = np.empty((m.size, m.size), dtype=bool)
    for x, tx in enumerate(maps):
        leq[x] = incl[maps, tx].all(axis=1)
    order = StableOrder(tuple(tuple(row.tolist()) for row in leq))
    members = frozenset(i for i, t in enumerate(transforms)
                        if t[dmin.initial] in dmin.accepting)
    ideal = OrderIdeal(members, _maximal_elements(leq, members))
    om = OrderedMonoid(m, order)
    om.__dict__["leq_array"] = leq
    return om, gens, ideal


def _maximal_elements(leq, members) -> tuple[int, ...]:
    """Members below no other member, ascending; ``leq`` is the order as
    a boolean matrix (nested tuples or an array)."""
    members = np.array(sorted(members), dtype=np.intp)
    above = np.asarray(leq, dtype=bool)[np.ix_(members, members)]
    np.fill_diagonal(above, False)
    return tuple(members[~above.any(axis=1)].tolist())


def ideal_generated(om: OrderedMonoid, gens) -> OrderIdeal:
    gens = tuple(gens)
    for g in gens:
        if not (0 <= g < om.size):
            raise CcError("ideal generator %d out of range" % g)
    leq = om.leq_array
    below = np.flatnonzero(leq[:, list(gens)].any(axis=1))
    return OrderIdeal(frozenset(below.tolist()), _maximal_elements(leq, below))


def is_order_ideal(om: OrderedMonoid, members) -> bool:
    members = set(members)
    return all(x in members
               for y in members for x in range(om.size) if om.leq(x, y))


# ---------------------------------------------------------------------------
# words and omega-terms

def eval_word(m, word: str, assignment: dict[str, int] | None = None) -> int:
    """Evaluate a word over generator letters; ``_`` is skipped.

    ``m`` may be a FiniteMonoid or an OrderedMonoid.  With ``assignment``
    the letters are treated as variables mapped to elements.
    """
    mono = m.monoid if isinstance(m, OrderedMonoid) else m
    lookup = assignment if assignment is not None else mono.generator_map
    p = mono.identity
    for a in word:
        if a == EPSILON:
            continue
        if a not in lookup:
            raise CcError("unknown generator letter %r" % a)
        p = mono.table[p][lookup[a]]
    return p


def _parse_term(text: str):
    """Parse a term into a list of (atom, omega, offset) factors.

    Grammar: a term is a sequence of factors; a factor is a letter or a
    parenthesized term, optionally followed by ^k, ^w or ^(w+k).  The
    exponent value is ``omega*w + offset`` where omega is 0 or 1.
    ``1`` and ``_`` denote the identity.
    """
    pos = 0
    text = text.replace(" ", "")

    def parse_seq(stop=None):
        nonlocal pos
        factors = []
        while pos < len(text) and text[pos] != stop:
            c = text[pos]
            if c == "(":
                pos += 1
                inner = parse_seq(stop=")")
                if pos >= len(text) or text[pos] != ")":
                    raise CcError("unbalanced parentheses in term %r" % text)
                pos += 1
                atom = inner
            elif c.isalnum() or c == EPSILON:
                pos += 1
                atom = c
            else:
                raise CcError("unexpected character %r in term %r" % (c, text))
            omega, offset = 0, 1
            if pos < len(text) and text[pos] == "^":
                pos += 1
                omega, offset = parse_exponent()
            factors.append((atom, omega, offset))
        return factors

    def parse_exponent():
        nonlocal pos
        if pos < len(text) and text[pos] == "(":
            pos += 1
            omega, offset = parse_exponent_body(stop=")")
            if pos >= len(text) or text[pos] != ")":
                raise CcError("unbalanced parentheses in exponent of %r" % text)
            pos += 1
            return omega, offset
        return parse_exponent_body()

    def parse_exponent_body(stop=None):
        nonlocal pos
        omega, offset = 0, 0
        if pos < len(text) and text[pos] == "w":
            omega = 1
            pos += 1
            if pos < len(text) and text[pos] == "+":
                pos += 1
        digits = ""
        while pos < len(text) and text[pos].isdigit():
            digits += text[pos]
            pos += 1
        if digits:
            offset = int(digits)
        elif not omega:
            raise CcError("empty exponent in term %r" % text)
        return omega, offset

    factors = parse_seq()
    if pos != len(text):
        raise CcError("trailing input in term %r" % text)
    return factors


def term_variables(text: str) -> list[str]:
    out = []

    def walk(factors):
        for atom, _, _ in factors:
            if isinstance(atom, list):
                walk(atom)
            elif atom not in ("1", EPSILON) and atom not in out:
                out.append(atom)

    walk(_parse_term(text))
    return sorted(out)


def eval_term(m, text: str, assignment: dict[str, int] | None = None) -> int:
    """Evaluate a term with optional omega exponents.

    ``x^w`` is the idempotent power of x, read from ``cycles``.  It equals
    x raised to the exponent of the monoid, so ``x^(w+k)`` is
    x^w * x^k and the exponent is never computed.
    """
    mono = m.monoid if isinstance(m, OrderedMonoid) else m
    lookup = assignment if assignment is not None else mono.generator_map
    cycles = mono.cycles

    def eval_factors(factors):
        p = mono.identity
        for atom, omega, offset in factors:
            if isinstance(atom, list):
                base = eval_factors(atom)
            elif atom in ("1", EPSILON):
                base = mono.identity
            else:
                if atom not in lookup:
                    raise CcError("unknown letter %r in term" % atom)
                base = lookup[atom]
            if omega:
                p = mono.table[p][cycles[base][2]]
            p = mono.table[p][mono.power(base, offset)]
        return p

    return eval_factors(_parse_term(text))


def exponent(m: FiniteMonoid) -> int:
    """Least k such that x**k is idempotent for every x.

    x**k is idempotent iff k is at least x's index and a multiple of its
    period, so this is the least multiple of the lcm of the periods in
    ``cycles`` that is at least the largest index.
    """
    mono = m.monoid if isinstance(m, OrderedMonoid) else m
    indices, periods, _ = zip(*mono.cycles)
    lcm = math.lcm(*periods)
    return lcm * -(-max(indices) // lcm)


# ---------------------------------------------------------------------------
# identities and structural predicates

MAX_IDENTITY_VARIABLES = 3


def satisfies_identity(om: OrderedMonoid | FiniteMonoid, lhs: str, rhs: str,
                       mode: str = "equals") -> bool:
    return identity_counterexample(om, lhs, rhs, mode) is None


def identity_counterexample(om, lhs: str, rhs: str, mode: str = "equals"):
    """First variable assignment violating the identity, or None.

    ``mode`` is ``equals`` (u = v) or ``leq`` (u <= v, needs an order).
    """
    if mode not in ("equals", "leq"):
        raise CcError("unknown identity mode %r" % mode)
    if mode == "leq" and not isinstance(om, OrderedMonoid):
        raise CcError("ordered identity requires an ordered monoid")
    mono = om.monoid if isinstance(om, OrderedMonoid) else om
    variables = sorted(set(term_variables(lhs)) | set(term_variables(rhs)))
    if len(variables) > MAX_IDENTITY_VARIABLES:
        raise CcError("too many variables in identity (%d > %d)"
                      % (len(variables), MAX_IDENTITY_VARIABLES))
    for values in itertools.product(range(mono.size), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        left = eval_term(mono, lhs, assignment)
        right = eval_term(mono, rhs, assignment)
        ok = left == right if mode == "equals" else om.leq(left, right)
        if not ok:
            return assignment
    return None


def check_property(om: OrderedMonoid, prop: str):
    """Decide a named structural property; returns (bool, witness or None)."""
    m = om.monoid
    n = m.size
    if prop == "commutative":
        for x in range(n):
            for y in range(x + 1, n):
                if m.mul(x, y) != m.mul(y, x):
                    return False, (x, y)
        return True, None
    if prop == "aperiodic":
        for x, (_, period, _) in enumerate(m.cycles):
            if period != 1:
                return False, (x,)
        return True, None
    if prop == "group":
        for x, (_, _, omega) in enumerate(m.cycles):
            if omega != m.identity:
                return False, (x,)
        return True, None
    if prop == "j_trivial":
        ideals = []
        for x in range(n):
            ideals.append(frozenset(m.mul(m.mul(p, x), q)
                                    for p in range(n) for q in range(n)))
        for x in range(n):
            for y in range(x + 1, n):
                if ideals[x] == ideals[y]:
                    return False, (x, y)
        return True, None
    if prop == "idempotent":
        for x in range(n):
            if m.mul(x, x) != x:
                return False, (x,)
        return True, None
    if prop == "locally_trivial":
        for e in m.idempotents():
            for y in range(n):
                if m.mul(m.mul(e, y), e) != e:
                    return False, (e, y)
        return True, None
    if prop == "identity_is_maximum":
        for x in range(n):
            if not om.leq(x, m.identity):
                return False, (x,)
        return True, None
    raise CcError("unknown property %r" % prop)


# ---------------------------------------------------------------------------
# quotients, subgroups, division

class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x, p[x] = p[x], p[p[x]]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def commutative_quotient(m: FiniteMonoid):
    """Maximal commutative quotient: factor by the least congruence with xy = yx.

    Returns (quotient, projection morphism).  The congruence is closed
    under left and right translation via a union-find worklist.
    """
    mono = m.monoid if isinstance(m, OrderedMonoid) else m
    n = mono.size
    uf = _UnionFind(n)
    pending = deque()
    for x in range(n):
        for y in range(x + 1, n):
            pending.append((mono.mul(x, y), mono.mul(y, x)))
    while pending:
        a, b = pending.popleft()
        if not uf.union(a, b):
            continue
        for z in range(n):
            pending.append((mono.mul(z, a), mono.mul(z, b)))
            pending.append((mono.mul(a, z), mono.mul(b, z)))
    roots = sorted({uf.find(x) for x in range(n)})
    cls = {r: i for i, r in enumerate(roots)}
    proj = tuple(cls[uf.find(x)] for x in range(n))
    k = len(roots)
    table = tuple(
        tuple(proj[mono.mul(roots[i], roots[j])] for j in range(k))
        for i in range(k)
    )
    gens = tuple((a, proj[g]) for a, g in mono.generators)
    names, _, _ = _canonical_names(table, proj[mono.identity], gens, k)
    quotient = FiniteMonoid(k, proj[mono.identity], table, names, gens)
    return quotient, MonoidMorphism(mono, quotient, proj)


def _canonical_names(table, identity, gens, size):
    """Shortlex BFS from the identity by right multiplication with the
    generators, taken in their listed order, which is letter order.

    Returns (names, tree, relations).  names[x] is the least word of x,
    ``#x`` when the generators do not reach x.  Each edge e --i--> ea of
    the right Cayley graph, i the index into ``gens``, is a tree edge
    tree[ea] = (e, i) when it first reaches ea, so that the least word of
    ea is that of e followed by letter i; otherwise it is the relation
    (e, i, ea).  Both come in BFS order: parents before their children,
    and each element's edges in generator order."""
    names = [None] * size
    names[identity] = ""
    tree, relations = {}, []
    queue = deque([identity])
    while queue:
        e = queue.popleft()
        for i, (a, g) in enumerate(gens):
            f = table[e][g]
            if names[f] is None:
                names[f] = names[e] + a
                tree[f] = e, i
                queue.append(f)
            else:
                relations.append((e, i, f))
    names = tuple(name if name is not None else "#%d" % i
                  for i, name in enumerate(names))
    return names, tree, relations


def maximal_subgroups(m: FiniteMonoid):
    """For each idempotent e, ascending, the group of units of the local
    monoid eMe: the x of index 1 with x^w = e, read from ``cycles`` in one
    pass with no inverse search."""
    mono = m.monoid if isinstance(m, OrderedMonoid) else m
    groups = {e: set() for e in mono.idempotents()}
    for x, (index, _, omega) in enumerate(mono.cycles):
        if index == 1:
            groups[omega].add(x)
    return [(e, frozenset(group)) for e, group in groups.items()]


def nonabelian_subgroup_witness(m: FiniteMonoid):
    """(e, g1, g2) with g1, g2 in a maximal subgroup at e and g1*g2 != g2*g1."""
    mono = m.monoid if isinstance(m, OrderedMonoid) else m
    for e, group in maximal_subgroups(mono):
        for g1 in sorted(group):
            for g2 in sorted(group):
                if mono.mul(g1, g2) != mono.mul(g2, g1):
                    return e, g1, g2
    return None


def division_map(n_om: OrderedMonoid, m_om: OrderedMonoid, preimages,
                 limit: int | None = None):
    """Division map sending the i-th preimage to N's i-th generator, or None.

    The closure runs in M x N from the identity pair, by right
    multiplication with the pairs (preimage, generator).  It is a division
    map when it is functional, onto N and order-preserving; its keys are the
    submonoid of M generated by the preimages.  With ``limit`` the closure
    gives up once it grows past that many elements.
    """
    n_m, m_m = n_om.monoid, m_om.monoid
    gens = [g for _, g in n_m.generators]
    if len(preimages) != len(gens):
        raise CcError("%d preimages for %d generators" % (len(preimages), len(gens)))
    pairs = tuple(zip(preimages, gens))
    image = {m_m.identity: n_m.identity}
    queue = deque([m_m.identity])
    while queue:
        x = queue.popleft()
        v = image[x]
        for px, pg in pairs:
            y, w = m_m.mul(x, px), n_m.mul(v, pg)
            known = image.get(y)
            if known is None:
                if limit is not None and len(image) >= limit:
                    return None
                image[y] = w
                queue.append(y)
            elif known != w:
                return None
    if len(set(image.values())) != n_m.size:
        return None
    for x in image:
        for y in image:
            if m_om.leq(x, y) and not n_om.leq(image[x], image[y]):
                return None
    return image


def _preimage_candidates(m: FiniteMonoid, n: FiniteMonoid):
    """For each generator g of n, the x in m for which x^k -> g^k is a
    well-defined map of <x> onto <g>.  Counted from x^0 = 1, the powers of
    x first repeat at x^(s+p) = x^s, where p is the period and s is 0 for a
    unit, the index otherwise; the map is well defined iff g^(s+p) = g^s,
    that is, iff g's s is at most x's and g's period divides p."""
    def start_period(mono, x):
        index, period, omega = mono.cycles[x]
        return 0 if omega == mono.identity else index, period

    keys = [start_period(m, x) for x in range(m.size)]
    return [[x for x, (s, p) in enumerate(keys) if gs <= s and p % gp == 0]
            for gs, gp in (start_period(n, g) for _, g in n.generators)]


# words over the divisor's generators up to this length are evaluated for
# every preimage tuple before it is closed
_SCREEN_LEN = 3
# preimage tuples screened per numpy block
_SCREEN_BLOCK = 2048
# array entries per numpy block of the copy search, whose relations drop
# most tuples after one or two gathers: a tuple takes a row of the
# divisor's |n| values and its k preimages, and |n|^2 entries for the
# order check, so BA2+ and U+ (|n| = 6, k = 2) take 47 662 tuples a block
_COPY_BLOCK = 1 << 21


def _product_blocks(candidates, size):
    """The product of ``candidates`` in lexicographic order, as int32
    arrays of at most ``size`` tuples."""
    columns = [np.array(c, dtype=np.int32) for c in candidates]
    total = math.prod(len(c) for c in columns)
    for start in range(0, total, size):
        rank = np.arange(start, min(start + size, total))
        tuples = np.empty((len(rank), len(columns)), dtype=np.int32)
        for i in reversed(range(len(columns))):
            rank, digit = np.divmod(rank, len(columns[i]))
            tuples[:, i] = columns[i][digit]
        yield tuples


def _related(m: FiniteMonoid, n: FiniteMonoid, tuples, tree, relations):
    """The preimage tuples that meet every relation u_e a = u_f of n, as
    rows holding m(u_e) in column e and the tuple after those |n| columns.
    Each relation drops the rows that break it before the next is
    evaluated, and m(u_e) is evaluated along the tree of least words only
    when first needed, from its nearest evaluated ancestor down."""
    size, table = n.size, m.table_array
    rows = np.empty((len(tuples), size + tuples.shape[1]), dtype=np.int32)
    rows[:, size:] = tuples
    rows[:, n.identity] = m.identity
    known = {n.identity}

    def value(e):
        path, x = [], e
        while x not in known:
            path.append(x)
            x = tree[x][0]
        for x in reversed(path):
            parent, i = tree[x]
            rows[:, x] = table[rows[:, parent], rows[:, size + i]]
            known.add(x)
        return rows[:, e]

    for e, i, f in relations:
        rows = rows[table[value(e), rows[:, size + i]] == value(f)]
        if not len(rows):
            return rows
    for e in tree:
        value(e)
    return rows


def _least_copy(m_om: OrderedMonoid, n_om: OrderedMonoid, candidates):
    """(values, preimages) for the least (sorted closure, preimages) over
    the preimage tuples whose closure is a copy of n, or None; values[e]
    is m(u_e), with u_e the least word of e.

    Each u_e a, for a generator a, equals u_f in n for f = ea: it is u_f
    itself (a tree edge of ``divisor_words``) or gives the relation u_e a
    = u_f.  Take a tuple that meets every relation and whose |n| values
    m(u_e) are distinct.  Every word w has m(w) = m(u_(n(w))), by
    induction on the length of w: for w = va, m(w) = m(u_(n(v))) m(a) =
    m(u_(n(v)) a), which the relations make m(u_(n(w))).  So its closure
    is exactly the |n| values, and m(u_e) -> e is an isomorphism onto n: a
    copy of n when the order of m on those values is contained in that of
    n, one gather on ``leq_array``.  No closure is run.
    """
    m, n = m_om.monoid, n_om.monoid
    _, _, cayley, _ = n.divisor_words
    width = n.size * (n.size + 1) + len(candidates)
    least = None
    for tuples in _product_blocks(candidates, max(1, _COPY_BLOCK // width)):
        rows = _related(m, n, tuples, *cayley)
        if not len(rows):
            continue
        values = rows[:, :n.size]
        closures = np.sort(values, axis=1)
        keep = (closures[:, 1:] != closures[:, :-1]).all(axis=1)
        if not keep.any():
            continue
        below = m_om.leq_array[values[:, :, None], values[:, None, :]]
        keep &= ~(below & ~n_om.leq_array).any(axis=(1, 2))
        if keep.any():
            # (sorted closure, preimages) keys, least first
            keys = np.hstack((closures, rows[:, n.size:]))[keep]
            row = np.lexsort(keys.T[::-1])[0]
            key = keys[row].tolist()
            if least is None or key < least[0]:
                least = key, rows[keep][row, :n.size].tolist()
    if least is None:
        return None
    key, values = least
    return values, tuple(key[n.size:])


def _screened_blocks(m: FiniteMonoid, n: FiniteMonoid, candidates):
    """Walk the product of ``candidates`` in lexicographic blocks.

    For each tuple, every word of length <= _SCREEN_LEN over n's generators
    is evaluated in m (letter i read as the tuple's i-th element) and in n.
    Yields, per block, the tuples in product order on which no two words
    agree in m but differ in n, with the count of distinct m-values of
    their words.  Both words lie in the closure of the tuple, so a
    dropped tuple has no division map, and the count is a lower bound on
    its closure size.  n's words are built once, in ``divisor_words``.
    """
    words, n_values, _, _ = n.divisor_words
    table = m.table_array
    for tuples in _product_blocks(candidates, _SCREEN_BLOCK):
        m_values = np.empty((len(tuples), len(n_values)), dtype=np.int32)
        m_values[:, 0] = m.identity
        for j, (w, i) in enumerate(words, 1):
            m_values[:, j] = table[m_values[:, w], tuples[:, i]]
        # sorted (m-value, n-value) keys: an m-value with two n-values
        # shows as equal neighbouring m-values with different keys
        keys = np.sort(m_values.astype(np.int64) * n.size + n_values, axis=1)
        tied = keys[:, 1:] // n.size == keys[:, :-1] // n.size
        functional = ~(tied & (keys[:, 1:] != keys[:, :-1])).any(axis=1)
        lower = len(n_values) - tied.sum(axis=1)
        yield tuples[functional].tolist(), lower[functional].tolist()


def divides(n_om: OrderedMonoid, m_om: OrderedMonoid):
    """Ordered-monoid division test: does n divide m?

    True iff some submonoid of m maps onto n by a surjective morphism of
    ordered monoids.  Such a morphism restricts to the submonoid generated
    by one preimage of each generator of n, so the search runs over tuples
    of preimages.  A candidate preimage of g is an element x whose cyclic
    submonoid maps functionally onto that of g, decided from the index and
    period of x and g in ``cycles`` (``_preimage_candidates``).

    A call ends at one of three exits, tried in this order:

    * DS.  When m lies in DS (``in_ds``) and n does not, the answer is no
      before any tuple is listed: DS is closed under division, and ordered
      division implies division.  Neither BA2+ nor U+ lies in DS.
    * Copy, for every divisor.  ``_least_copy`` finds the tuples whose
      closure is an isomorphic copy of n by checking n's relations on
      them, with no closure.  A division map is onto n, so no closure is
      smaller than |n|, and one of exactly |n| elements is a copy: when
      there is a copy, the answer is the least one, and its map m(u_e) ->
      e is the certificate's, read off the copy search's values.
    * Closure, for closures larger than n only.  Otherwise the product of
      the candidate lists is screened in blocks (``_screened_blocks``): a
      tuple is dropped when two words of length <= 3 over n's generators
      agree in m but differ in n, or when the number of distinct m-values
      of those words, a lower bound on its closure size, exceeds the best
      closure found so far.  Survivors are closed with ``division_map`` in
      ascending lower-bound order, and a closure stops once it grows past
      the best one.  The answer is no when none is a division map.

    For k generators the copy search and the screen each walk up to |M|^k
    tuples: the screen with O(k^3) table lookups per tuple, the copy
    search dropping most tuples at the first relation.  A closure costs
    O(|M| k) steps plus an O(|M|^2) order check.

    Returns (bool, certificate) where the certificate is (preimages in the
    order of n's generators, element map, submonoid elements) for the
    least key (closure size, sorted closure elements, preimage tuple): the
    smallest submonoid, and among equal ones the first tuple in product
    order, whatever order the survivors are closed in.  The tie-break has
    a cost: a survivor whose bound equals the best size is still closed
    in full, since only a strictly larger closure can be cut short.
    Raises CcError when n's generators do not generate n, since the
    search would then miss every division.
    """
    n_m, m_m = n_om.monoid, m_om.monoid
    _, _, _, generated = n_m.divisor_words
    if not generated:
        raise CcError("the generators of the divisor do not generate it")
    if m_m.in_ds and not n_m.in_ds:
        return False, None
    candidates = _preimage_candidates(m_m, n_m)
    copy = _least_copy(m_om, n_om, candidates)
    if copy is not None:
        values, preimages = copy
        image = {x: e for e, x in enumerate(values)}
        return True, (preimages, image, frozenset(image))
    best = None
    for tuples, lower in _screened_blocks(m_m, n_m, candidates):
        for row in sorted(range(len(tuples)), key=lower.__getitem__):
            limit = None if best is None else best[0][0]
            if limit is not None and lower[row] > limit:
                break
            preimages = tuple(tuples[row])
            image = division_map(n_om, m_om, preimages, limit=limit)
            if image is not None:
                key = (len(image), sorted(image), preimages)
                if best is None or key < best[0]:
                    best = key, image
    if best is None:
        return False, None
    (_, _, preimages), image = best
    return True, (preimages, image, frozenset(image))


def tq_period(m: FiniteMonoid, e: int, f: int) -> int | None:
    """q when (e, f) is a T_q pair, else None: e and f are idempotent and
    the orbit (ef)^i e, i >= 1, first returns to e at i = q > 1."""
    if m.mul(e, e) != e or m.mul(f, f) != f:
        return None
    ef = m.mul(e, f)
    x, seen = m.mul(ef, e), {e}
    while x not in seen:
        seen.add(x)
        x = m.mul(ef, x)
    # seen holds e and the orbit before its first repeat x
    return len(seen) if x == e and len(seen) > 1 else None


def find_tq(m: FiniteMonoid):
    """First idempotent pair (e, f) that is a T_q pair (``tq_period``);
    returns (q, e, f) or None.

    With e idempotent, (ef)^i e = (efe)^i, so the orbit first returns to e
    at i = q exactly when efe has index 1, period q and idempotent power
    e: read from ``cycles``, with no orbit walked."""
    mono = m.monoid if isinstance(m, OrderedMonoid) else m
    table, cycles = mono.table, mono.cycles
    idems = mono.idempotents()
    for e in idems:
        for f in idems:
            index, period, omega = cycles[table[table[e][f]][e]]
            if index == 1 and period > 1 and omega == e:
                return period, e, f
    return None


# ---------------------------------------------------------------------------
# serialization

def serialize_monoid(m, order: StableOrder | None = None,
                     ideal: OrderIdeal | None = None) -> str:
    """Canonical text form: size, identity, table rows, names, generators,
    then optional order grid and ideal."""
    if isinstance(m, OrderedMonoid):
        order = m.order if order is None else order
        m = m.monoid
    lines = [
        "size: %d" % m.size,
        "identity: %d" % m.identity,
        "table:",
    ]
    for row in m.table:
        lines.append(",".join(str(x) for x in row))
    lines.append("names: " + ",".join(m.name_of(x) for x in range(m.size)))
    lines.append("generators: " + ",".join("%s=%d" % (a, g) for a, g in m.generators))
    if order is not None:
        lines.append("order:")
        for row in order.leq:
            lines.append("".join("1" if v else "0" for v in row))
    if ideal is not None:
        lines.append("ideal: " + ",".join(str(x) for x in sorted(ideal.members)))
        lines.append("ideal_generators: " + ",".join(str(x) for x in ideal.generating))
    return "\n".join(lines) + "\n"
