"""Rectangular and local reductions, with exhaustive verification.

A local reduction turns each input bit into a fixed block of s slots per
player; slot entries are monoid elements (monoid targets) or padded words
(language targets).  Fixed prefix and suffix slots wrap the transformed
input.  Polarity records whether landing in the accepting set encodes
output 1 or output 0, so the verified statement is precise even when a
construction naturally hits the complement.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .automata import EPSILON, CapError, CcError, Dfa, accepts, builtin_language
from .classify import (
    builtin_monoid, find_shuffle_witness, is_noncommuting_pair,
    is_shuffle_witness,
)
from .commcc import (
    MATERIALIZE_CAP, UNDEF, CommFunction, _Budget, _automaton, _fold,
    builtin_function,
)
from .monoid import (
    OrderIdeal, OrderedMonoid, eval_word, find_tq, ideal_generated,
    syntactic_ordered_monoid, tq_period,
)

ACCEPT_IS_ONE = "ACCEPT_IS_ONE"
ACCEPT_IS_ZERO = "ACCEPT_IS_ZERO"


@dataclass(frozen=True)
class MonoidTarget:
    om: OrderedMonoid
    ideal: OrderIdeal

    def accepted(self, elements) -> bool:
        return self.om.monoid.product(elements) in self.ideal.members

    @property
    def start(self) -> int:
        return self.om.monoid.identity

    @property
    def accepting(self) -> frozenset[int]:
        return self.ideal.members

    def action(self, entries) -> tuple[int, ...]:
        """State map of a slot sequence: x goes to x times the product of
        the entries, folded through the table from the identity."""
        m = self.om.monoid
        return tuple(map(operator.itemgetter(m.product(entries)), m.table))


@dataclass(frozen=True)
class LanguageTarget:
    dfa: Dfa

    def accepted(self, word: str) -> bool:
        return accepts(self.dfa, word)

    @property
    def start(self) -> int:
        return self.dfa.initial

    @property
    def accepting(self) -> frozenset[int]:
        return self.dfa.accepting

    def action(self, entries) -> tuple[int, ...]:
        """State map of a slot sequence: the moves of its letters, with
        ``EPSILON`` skipped."""
        return self.dfa.word_action("".join(entries))


@dataclass(frozen=True)
class VerificationReport:
    name: str
    status: str
    n_range: tuple[int, int]
    checked_pairs: int
    counterexample: tuple | None

    def serialize(self) -> str:
        lines = [
            "name: %s" % self.name,
            "status: %s" % self.status,
            "n_range: %d..%d" % self.n_range,
            "checked_pairs: %d" % self.checked_pairs,
        ]
        if self.counterexample is not None:
            n, x, y, expected, got = self.counterexample
            lines.append("counterexample: n=%d x=%s y=%s expected=%d got=%d"
                         % (n, x, y, expected, got))
        return "\n".join(lines) + "\n"


@functools.lru_cache
def _source(name: str, n: int, q: int | None, variant: str | None) -> CommFunction:
    """``builtin_function``, cached: every replay of a certificate asks for
    the same few sources, and a ``CommFunction`` is frozen."""
    return builtin_function(name, n, q=q, variant=variant)


@dataclass(frozen=True)
class LocalReduction:
    """Per-bit 2 x 2s slot matrix plus prefix/suffix slots.

    ``alice[z][k]`` is Alice's k-th slot entry when her bit is z; likewise
    ``bob``.  Entries are monoid element indices or padded words depending
    on the target.
    """

    name: str
    source_name: str
    alice: tuple[tuple, tuple]
    bob: tuple[tuple, tuple]
    alice_prefix: tuple
    bob_prefix: tuple
    alice_suffix: tuple
    bob_suffix: tuple
    target: object
    polarity: str
    source_q: int | None = None
    source_variant: str | None = None

    def __post_init__(self):
        s = len(self.alice[0])
        if not (len(self.alice[1]) == len(self.bob[0]) == len(self.bob[1]) == s):
            raise CcError("slot rows must have equal length")
        if len(self.alice_prefix) != len(self.bob_prefix) or \
                len(self.alice_suffix) != len(self.bob_suffix):
            raise CcError("prefix/suffix slots must pair up across players")
        if isinstance(self.target, LanguageTarget):
            for k in range(s):
                if len(self.alice[0][k]) != len(self.alice[1][k]) or \
                        len(self.bob[0][k]) != len(self.bob[1][k]):
                    raise CcError("slot %d entries have unequal padded length" % k)

    def source(self, n: int) -> CommFunction:
        return _source(self.source_name, n, self.source_q, self.source_variant)

    def apply(self, x_bits: str, y_bits: str):
        """Interleaved target instance for one input pair."""
        alice_seq = list(self.alice_prefix)
        bob_seq = list(self.bob_prefix)
        for xb, yb in zip(x_bits, y_bits):
            alice_seq.extend(self.alice[int(xb)])
            bob_seq.extend(self.bob[int(yb)])
        alice_seq.extend(self.alice_suffix)
        bob_seq.extend(self.bob_suffix)
        out = _interleaved(alice_seq, bob_seq)
        if isinstance(self.target, LanguageTarget):
            return "".join(out)
        return out

    def decides_one(self, x_bits: str, y_bits: str) -> bool:
        accepted = self.target.accepted(self.apply(x_bits, y_bits))
        return accepted if self.polarity == ACCEPT_IS_ONE else not accepted


@dataclass(frozen=True)
class RectangularReduction:
    """Reduction of whole inputs rather than per-bit blocks; like a
    ``LocalReduction`` it decides a cell from its two bit-string labels."""

    name: str
    source_name: str
    target: object
    polarity: str
    source_q: int | None = None

    def source(self, n: int) -> CommFunction:
        return _source(self.source_name, n, self.source_q, None)


@dataclass(frozen=True)
class PositionReduction(RectangularReduction):
    """Alice plants ``a`` at her number's position, Bob plants ``b``;
    everything else is the identity (the less-than reduction)."""

    a: int = 0
    b: int = 0

    def length(self, n: int) -> int:
        return 2 ** n

    def apply(self, x: int, y: int, n: int):
        m = self.target.om.monoid
        t = self.length(n)
        out = []
        for i in range(t):
            out.append(self.a if i == x else m.identity)
            out.append(self.b if i == y else m.identity)
        return out

    def decides_one(self, x_bits: str, y_bits: str) -> bool:
        accepted = self.target.accepted(
            self.apply(int(x_bits, 2), int(y_bits, 2), len(x_bits)))
        return accepted if self.polarity == ACCEPT_IS_ONE else not accepted


@dataclass(frozen=True)
class AppendOnesReduction(RectangularReduction):
    """Function-to-function reduction: both players append q ones, turning
    promise disjointness into the inner-product predicate.  The q appended
    (1, 1) pairs add q common ones, 0 modulo q, so the instance of (x, y)
    takes IP_q's value at (x, y), and the replay folds IP_q's own bit-pair
    automaton, which counts every length up to ``MATERIALIZE_CAP`` exactly
    whatever q is."""

    q: int = 2

    def apply(self, x_bits: str, y_bits: str):
        return x_bits + "1" * self.q, y_bits + "1" * self.q

    def decides_one(self, x_bits: str, y_bits: str) -> bool:
        # the common ones of the instance: those of x and y, plus the q
        # appended pairs, counted without building the instance
        total = sum(a == b == "1" for a, b in zip(x_bits, y_bits)) + self.q
        value = total % self.q == 0
        return value if self.polarity == ACCEPT_IS_ONE else not value


def apply_reduction(reduction, x, y, n: int | None = None):
    """Target instance for one source input (bit strings for bit-indexed
    reductions, numbers for position-indexed ones).  Rejects inputs
    outside the source promise domain."""
    if isinstance(reduction, PositionReduction):
        if n is None or not (0 <= x < 2 ** n and 0 <= y < 2 ** n):
            raise CcError("inputs out of range for n=%s" % n)
        return reduction.apply(x, y, n)
    if len(x) != len(y) or not x or any(c not in "01" for c in x + y):
        raise CcError("inputs must be equal-length bit strings")
    f = reduction.source(len(x))
    if f.value(int(x, 2), int(y, 2)) is None:
        raise CcError("input (%s,%s) is outside the promise domain" % (x, y))
    return reduction.apply(x, y)


def verify_reduction(reduction, n_max: int) -> VerificationReport:
    """Replay the reduction on every in-domain input for each length
    1..n_max.

    Reports the first counterexample in canonical order, or PASS with the
    number of checked pairs.  Raises CapError before the first pair when
    n_max exceeds MATERIALIZE_CAP, and past WORK_CAP pairs: each length's
    defined cells are charged before it is replayed.  Each length is
    checked in one pass: its replayed rows, the next level of
    ``_replayer``, joined, are compared with the source's joined rows, and
    only when the two strings differ, which they do wherever the source
    has a ``*`` cell, does one masked byte comparison over the defined
    cells find the first cell that differs and the count checked up to it.
    """
    if n_max < 1:
        raise CcError("verification needs n_max >= 1")
    if n_max > MATERIALIZE_CAP:
        raise CapError("verify: n_max=%d outside materialization range 1..%d"
                       % (n_max, MATERIALIZE_CAP))
    budget = _Budget("verify")
    levels = _replayer(reduction)
    checked = 0
    for n in range(1, n_max + 1):
        f = reduction.source(n)
        want = "".join(f.rows)
        defined = len(want) - want.count(UNDEF)
        budget.charge(defined)
        got = "".join(next(levels))
        if want != got:
            expected = np.frombuffer(want.encode(), dtype=np.uint8)
            mask = expected != ord(UNDEF)
            wrong = np.flatnonzero(mask & (expected != np.frombuffer(got.encode(), dtype=np.uint8)))
            if len(wrong):
                k = int(wrong[0])
                i, j = divmod(k, f.n_cols)
                return VerificationReport(
                    reduction.name, "FAIL", (1, n_max),
                    checked + int(np.count_nonzero(mask[:k + 1])),
                    (n, f.row_labels[i], f.col_labels[j], int(want[k]), int(got[k])))
        checked += defined
    return VerificationReport(reduction.name, "PASS", (1, n_max), checked, None)


def _replayer(reduction):
    """Replayed rows at n = 1, 2, ...: one "0"/"1" string per row, the
    reduction's decision at each column, every cell filled.  Rows and
    columns are indexed as ``builtin_function`` labels them, by the n-bit
    numeral.  A position reduction is read off its closed form; a local
    or append-ones reduction is a bit-pair automaton, folded."""
    if isinstance(reduction, PositionReduction):
        return _position_levels(reduction)
    if isinstance(reduction, AppendOnesReduction):
        # the instance of (x, y) takes IP_q's value at (x, y)
        _, maps, cells = _automaton("IP", reduction.q, None)
        return _fold_levels(0, maps, _verdict(reduction, (c == "1" for c in cells)))
    return _local_levels(reduction)


def _verdict(reduction, accepted) -> str:
    """"1" or "0" per state: the reduction's decision at a state whose
    instance is accepted or not."""
    inside, outside = ("1", "0") if reduction.polarity == ACCEPT_IS_ONE else ("0", "1")
    return "".join(inside if a else outside for a in accepted)


def _fold_levels(start, maps, verdict):
    """Rows at n = 1, 2, ... of the bit-pair automaton whose pair (a, b)
    moves state s to ``maps[a][b][s]``, run from ``start``, each final
    state read through ``verdict``."""
    reads = _fold(start, len(verdict), itertools.repeat(maps))
    return (read(verdict) for read in itertools.islice(reads, 1, None))


def _interleaved(alice, bob) -> list:
    return [e for pair in zip(alice, bob) for e in pair]


def _local_levels(r: LocalReduction):
    """Replayed rows of a ``LocalReduction`` at n = 1, 2, ....

    The reduction is an automaton over bit pairs with the target's states:
    it starts where the prefix slots lead, reads (x_k, y_k) through the
    block action ``blocks[x_k][y_k]``, and decides once the suffix slots
    have run.  So length n is ``_fold``'s n-th level, read through that
    verdict.
    """
    target = r.target
    start = target.action(_interleaved(r.alice_prefix, r.bob_prefix))[target.start]
    blocks = tuple(tuple(target.action(_interleaved(r.alice[x], r.bob[y]))
                         for y in (0, 1)) for x in (0, 1))
    suffix = target.action(_interleaved(r.alice_suffix, r.bob_suffix))
    return _fold_levels(start, blocks, _verdict(r, (s in target.accepting for s in suffix)))


def _position_levels(r: PositionReduction):
    """Replayed rows of a ``PositionReduction`` at n = 1, 2, ....

    Every slot but the two planted ones holds the identity, so the
    instance of (x, y) acts as ``a`` then ``b`` when x <= y (at a shared
    position Alice's slot comes first), and as ``b`` then ``a`` otherwise:
    row x is the verdict of ``b a`` on its first x columns and that of
    ``a b`` on the rest.
    """
    target = r.target
    v_ab, v_ba = _verdict(r, (target.action(pair)[target.start] in target.accepting
                              for pair in ((r.a, r.b), (r.b, r.a))))
    for n in itertools.count(1):
        t = 1 << n
        yield [v_ba * x + v_ab * (t - x) for x in range(t)]


# ---------------------------------------------------------------------------
# built-in reductions

def _alternating_decomposition(v: str, w1: str, w2: str):
    """Split v as x1 y1 ... xk yk with the x's concatenating to w1 and the
    y's to w2, minimizing k; deterministic first decomposition."""
    for k in range(1, len(v) + 2):
        for xs in _compositions(w1, k):
            for ys in _compositions(w2, k):
                if "".join(a + b for a, b in zip(xs, ys)) == v:
                    return list(xs), list(ys)
    raise CcError("%r is not a shuffle of %r and %r" % (v, w1, w2))


def _compositions(word: str, k: int):
    """All ways to cut word into k (possibly empty) ordered pieces."""
    for cuts in itertools.combinations_with_replacement(range(len(word) + 1), k - 1):
        points = (0,) + cuts + (len(word),)
        yield tuple(word[points[i]:points[i + 1]] for i in range(k))


def shuffle_reduction(om: OrderedMonoid, u: str, w1: str, w2: str,
                      v: str) -> LocalReduction:
    """PDISJ to (M, <eval(u)>) via the shuffle witness (u, w1, w2, v)."""
    m = om.monoid
    if not is_shuffle_witness(om, u, w1, w2, v):
        raise CcError("%r is not a shuffle witness" % ((u, w1, w2, v),))
    eu = eval_word(m, u)
    xs, ys = _alternating_decomposition(v, w1, w2)
    k = len(xs)
    ee = m.identity
    alice0 = tuple([eval_word(m, w1)] + [ee] * (2 * k - 1))
    bob0 = tuple([ee] * k + [eval_word(m, y) for y in ys])
    alice1 = tuple([eval_word(m, x) for x in xs] + [ee] * k)
    bob1 = tuple([eval_word(m, y) for y in ys] + [ee] * k)
    return LocalReduction(
        "pdisj_to_shuffle", "PDISJ", (alice0, alice1), (bob0, bob1),
        alice_prefix=(eu,), bob_prefix=(ee,),
        alice_suffix=(ee,), bob_suffix=(eu,),
        target=MonoidTarget(om, ideal_generated(om, [eu])),
        polarity=ACCEPT_IS_ONE)


def group_reduction(om: OrderedMonoid, a: int, b: int) -> LocalReduction:
    """IP_q to (G, <identity>) where q is the order of the commutator of a
    and b; requires a, b invertible with a non-trivial commutator.

    Every product of the entries is a unit, and a unit u <= 1 is 1: by
    stability 1 = u^p <= ... <= u <= 1.  So a product lies in the ideal
    below 1 exactly when it is 1, with no condition on the order."""
    m = om.monoid

    def inverse(x):
        # a unit's powers cycle through the identity, so x^(period-1) = x^-1
        _, period, omega = m.cycles[x]
        if omega != m.identity:
            raise CcError("element %s is not invertible" % m.names[x])
        return m.power(x, period - 1)

    ai, bi = inverse(a), inverse(b)
    commutator = m.product([ai, bi, a, b])
    if commutator == m.identity:
        raise CcError("the chosen elements commute")
    q = m.cycles[commutator][1]     # a unit's order is its period
    ee = m.identity
    return LocalReduction(
        "ipq_to_group", "IP", ((ee, ee), (ai, a)), ((ee, ee), (bi, b)),
        alice_prefix=(), bob_prefix=(),
        alice_suffix=(ee,), bob_suffix=(ee,),
        target=MonoidTarget(om, ideal_generated(om, [ee])),
        polarity=ACCEPT_IS_ONE, source_q=q)


def tq_reduction(om: OrderedMonoid, e: int, f: int, q: int) -> LocalReduction:
    """IP_q to (M, <e>) via the idempotent pair of a T_q monoid."""
    m = om.monoid
    if tq_period(m, e, f) != q:
        raise CcError("(%s, %s) is not a T_%d pair" % (m.name_of(e), m.name_of(f), q))
    efq = m.power(m.mul(e, f), q)
    return LocalReduction(
        "ipq_to_tq", "IP",
        ((m.mul(e, efq),), (e,)),
        ((m.mul(efq, e),), (m.mul(f, e),)),
        alice_prefix=(), bob_prefix=(),
        alice_suffix=(), bob_suffix=(),
        target=MonoidTarget(om, ideal_generated(om, [e])),
        polarity=ACCEPT_IS_ONE, source_q=q)


def lt_reduction(om: OrderedMonoid, a: int, b: int) -> PositionReduction:
    """LESS-THAN to (M, <ab>) for a non-commuting pair with ba not below ab."""
    m = om.monoid
    if not is_noncommuting_pair(om, a, b):
        raise CcError("(%s, %s) is not a noncommuting pair: ab = ba or ba is "
                      "below ab" % (m.name_of(a), m.name_of(b)))
    return PositionReduction(
        "lt_to_noncommutative", "LT",
        MonoidTarget(om, ideal_generated(om, [m.mul(a, b)])),
        ACCEPT_IS_ONE, a=a, b=b)


def pip2_to_l5_reduction(variant: str = "TWO_SIDED") -> LocalReduction:
    """PIP_2 to the five-state language, block matrix fixed, with accepting
    state encoding output zero."""
    return LocalReduction(
        "pip2_to_L5", "PIP2",
        (("a", EPSILON, "a", EPSILON), ("a", EPSILON, "b", EPSILON)),
        ((EPSILON, "b", "b", EPSILON), ("b", "a", "a", "b")),
        alice_prefix=(), bob_prefix=(),
        alice_suffix=("b",), bob_suffix=(EPSILON,),
        target=LanguageTarget(builtin_language("L5")),
        polarity=ACCEPT_IS_ZERO, source_variant=variant)


BUILTIN_REDUCTION_NAMES = ("ipq_to_group", "ipq_to_tq", "lt_to_noncommutative",
                           "pdisj_to_ipq", "pdisj_to_shuffle", "pip2_to_L5")


def _entry_text(reduction, entry) -> str:
    if isinstance(reduction.target, LanguageTarget):
        return entry
    m = reduction.target.om.monoid
    return m.name_of(entry)


def serialize_reduction(reduction) -> str:
    """Descriptor document: name, source, target, polarity, then the block
    matrix as slash-separated padded words plus prefix/suffix rows."""
    lines = ["name: %s" % reduction.name]
    source = reduction.source_name
    if getattr(reduction, "source_q", None) is not None:
        source += "_%d" % reduction.source_q
    if getattr(reduction, "source_variant", None) is not None:
        source += ":%s" % reduction.source_variant
    lines.append("source: %s" % source)
    if isinstance(reduction, AppendOnesReduction):
        lines.append("target: function IP_%d" % reduction.q)
    elif isinstance(reduction.target, LanguageTarget):
        lines.append("target: language[%s]" % ",".join(reduction.target.dfa.alphabet))
    else:
        m = reduction.target.om.monoid
        ideal = ",".join(m.name_of(x)
                         for x in sorted(reduction.target.ideal.generating))
        lines.append("target: monoid[size=%d] ideal=<%s>" % (m.size, ideal))
    lines.append("polarity: %s" % reduction.polarity)
    if isinstance(reduction, LocalReduction):
        for z in (0, 1):
            row = []
            for k in range(len(reduction.alice[z])):
                row.append(_entry_text(reduction, reduction.alice[z][k]))
                row.append(_entry_text(reduction, reduction.bob[z][k]))
            lines.append("matrix%d: %s" % (z, "/".join(row)))
        for label, slots in (("prefix", zip(reduction.alice_prefix, reduction.bob_prefix)),
                             ("suffix", zip(reduction.alice_suffix, reduction.bob_suffix))):
            for a, b in slots:
                lines.append("%s: %s/%s" % (label, _entry_text(reduction, a),
                                            _entry_text(reduction, b)))
    elif isinstance(reduction, PositionReduction):
        m = reduction.target.om.monoid
        lines.append("length: 2^n")
        lines.append("plant: %s/%s" % (m.name_of(reduction.a), m.name_of(reduction.b)))
    elif isinstance(reduction, AppendOnesReduction):
        lines.append("length: n+%d" % reduction.q)
        lines.append("append: %s" % ("1" * reduction.q))
    return "\n".join(lines) + "\n"


def builtin_reduction(name: str, q: int | None = None,
                      variant: str = "TWO_SIDED"):
    """Canonical instantiations of the named reductions."""
    if name == "pdisj_to_ipq":
        q = 2 if q is None else q
        if q < 2:
            raise CcError("pdisj_to_ipq requires q >= 2")
        return AppendOnesReduction("pdisj_to_ipq", "PDISJ", None,
                                   ACCEPT_IS_ONE, q=q)
    if name == "pdisj_to_shuffle":
        om, _ = builtin_monoid("BA2_PLUS")
        witness = find_shuffle_witness(om)
        return shuffle_reduction(om, *witness)
    if name == "ipq_to_group":
        om, _ = builtin_monoid("S3")
        gens = om.monoid.generator_map
        return group_reduction(om, gens["a"], gens["b"])
    if name == "ipq_to_tq":
        om, _ = builtin_monoid("TQ_EXAMPLE", q=3 if q is None else q)
        found = find_tq(om.monoid)
        return tq_reduction(om, found[1], found[2], found[0])
    if name == "lt_to_noncommutative":
        om, _ = builtin_monoid("BA2_PLUS")
        gens = om.monoid.generator_map
        return lt_reduction(om, gens["a"], gens["b"])
    if name == "pip2_to_L5":
        return pip2_to_l5_reduction(variant)
    raise CcError("unknown built-in reduction %r" % name)


# ---------------------------------------------------------------------------
# monoid problem encoded as a language problem

@dataclass(frozen=True)
class MonoidLanguageEncoding:
    """Padded-word protocol data realizing the monoid problem inside its
    language: per-element words, a witness table for every strict
    order violation, and the membership recipe those witnesses decide."""

    om: OrderedMonoid
    ideal: OrderIdeal
    dfa: Dfa
    width: int
    words: tuple[str, ...]                       # padded w_m per element
    witness_table: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    recipe_members: frozenset[int]

    def word_of(self, element: int) -> str:
        return self.words[element]

    def contexts(self):
        return sorted({pq for _, pq in self.witness_table})

    def instance_words(self, alice, bob, context):
        """The two padded rows of the protocol run for one context pair."""
        p, q = context
        blank = EPSILON * self.width
        alice_row = [self.words[p]]
        bob_row = [blank]
        for ma, mb in zip(alice, bob):
            alice_row.extend([self.words[ma], blank])
            bob_row.extend([blank, self.words[mb]])
        alice_row.append(self.words[q])
        bob_row.append(blank)
        return "".join(alice_row), "".join(bob_row)

    def merged_word(self, alice, bob, context) -> str:
        a_row, b_row = self.instance_words(alice, bob, context)
        out = []
        for ca, cb in zip(a_row, b_row):
            if ca != EPSILON and cb != EPSILON:
                raise CcError("rows collide; padding is broken")
            out.append(ca if ca != EPSILON else cb)
        return "".join(out)

    def recipe_member(self, element: int) -> bool:
        return element in self.recipe_members

    def replay_witness_table(self) -> bool:
        """Every stored context must separate its pair through the DFA."""
        for (s, t), (p, q) in self.witness_table:
            good = self.words[p] + self.words[t] + self.words[q]
            bad = self.words[p] + self.words[s] + self.words[q]
            if not accepts(self.dfa, good) or accepts(self.dfa, bad):
                return False
        return True


def encode_monoid_as_language(om: OrderedMonoid, ideal: OrderIdeal,
                              dfa: Dfa) -> MonoidLanguageEncoding:
    """Build the language-side protocol data for a monoid problem.

    Requires om to be the syntactic ordered monoid of the automaton's
    language (canonical-form equality).  For every ordered pair s, t with
    s not below t, a context (p, q) with p*t*q accepting and p*s*q not is
    stored; the membership recipe then reads: the product lies in the
    ideal iff for some ideal generator i, every stored context accepting
    p*i*q also accepts p*product*q.
    """
    check_om, _, check_ideal = syntactic_ordered_monoid(dfa)
    if check_om != om:
        raise CcError("monoid is not the syntactic ordered monoid of the automaton")
    m = om.monoid
    n = m.size
    products = m.table
    accepting = [x in check_ideal.members for x in range(n)]

    table = []
    for s in range(n):
        for t in range(n):
            if s == t or om.leq(s, t):
                continue
            found = None
            for p in range(n):
                # rows p*t and p*s of the multiplication table: entry q is
                # p*t*q, p*s*q
                pt, ps = products[products[p][t]], products[products[p][s]]
                q = next((q for q in range(n)
                          if accepting[pt[q]] and not accepting[ps[q]]), None)
                if q is not None:
                    found = (p, q)
                    break
            if found is None:
                raise CcError("order violation (%d,%d) has no context" % (s, t))
            table.append(((s, t), found))

    context_words = {w for _, (p, q) in table for w in (m.names[p], m.names[q])}
    width = max(len(name) for name in
                set(m.names) | context_words | {""}) or 1
    words = tuple(name + EPSILON * (width - len(name)) for name in m.names)

    contexts = sorted({pq for _, pq in table})
    members = set()
    for x in range(n):
        for i in ideal.generating:
            if all(not accepting[products[products[p][i]][q]] or
                   accepting[products[products[p][x]][q]]
                   for p, q in contexts):
                members.add(x)
                break
    return MonoidLanguageEncoding(om, ideal, dfa, width, words,
                                  tuple(table), frozenset(members))


# ---------------------------------------------------------------------------
# bounded non-existence of a local PDISJ reduction to L5

def _l5_v_classes(dfa: Dfa, u: str):
    """The three state maps v may induce for this u: the word u acts as a
    partial identity on two states with everything else in the sink, so a
    companion v that stays comparable-free must send one fixed state to
    the other (or swap them) and all other states to the sink."""
    sink = 4
    action = dfa.word_action(u)
    fixed = [s for s in range(dfa.state_count)
             if action[s] == s and s != sink]
    if len(fixed) != 2:
        raise CcError("%r does not fix exactly two states" % u)
    p, q = fixed
    base = [sink] * dfa.state_count
    one, two, both = list(base), list(base), list(base)
    one[p] = q
    two[q] = p
    both[p], both[q] = q, p
    return (tuple(one), tuple(two), tuple(both))


@dataclass(frozen=True)
class NonexistenceReport:
    s_max: int
    relaxed: bool
    pruned: bool
    u_words: tuple[str, ...]
    v_counts: tuple[tuple[str, int], ...]
    matrices: tuple
    none_found: bool

    def serialize(self) -> str:
        lines = [
            "s_max: %d" % self.s_max,
            "relaxed: %s" % str(self.relaxed).lower(),
            "pruned: %s" % str(self.pruned).lower(),
            "status: %s" % ("NONE_FOUND" if self.none_found else "FOUND"),
        ]
        for u, count in self.v_counts:
            lines.append("candidates: u=%s v_words=%d" % (u, count))
        for u, v, row0, row1 in self.matrices:
            lines.append("matrix: u=%s v=%s row0=%s row1=%s"
                         % (u, v, "".join(row0), "".join(row1)))
        return "\n".join(lines) + "\n"


def _prefix_sums(word: str):
    out = {0}
    run = 0
    for ch in word:
        run += 1 if ch == "a" else -1
        out.add(run)
    return out


def _matrix_dfs(u: str, v: str, slots: int):
    """Find one 2 x 2s matrix whose four interleavings read u, u, u, v.

    Column by column, each of the four entries either is empty or must
    match the next letter of both words that consume it; prefix pointers
    (row0, row1, mixed 0/1, mixed 1/0) track progress.
    """
    lu, lv = len(u), len(v)

    def dfs(j, p00, p11, p01, p10, acc0, acc1):
        if j == slots:
            if p00 == p01 == p10 == lu and p11 == lv:
                return tuple(acc0), tuple(acc1)
            return None
        rest = 2 * (slots - j)
        if lu - p00 > rest or lu - p01 > rest or lu - p10 > rest or lv - p11 > rest:
            return None
        for a0 in _entry_options(u, p00, u, p01):
            n00, n01 = _advance(p00, p01, a0)
            for a1 in _entry_options(v, p11, u, p10):
                n11, n10 = _advance(p11, p10, a1)
                for b0 in _entry_options(u, n00, u, n10):
                    m00, m10 = _advance(n00, n10, b0)
                    for b1 in _entry_options(v, n11, u, n01):
                        m11, m01 = _advance(n11, n01, b1)
                        acc0.extend((a0, b0))
                        acc1.extend((a1, b1))
                        got = dfs(j + 1, m00, m11, m01, m10, acc0, acc1)
                        if got is not None:
                            return got
                        del acc0[-2:], acc1[-2:]
        return None

    return dfs(0, 0, 0, 0, 0, [], [])


def _entry_options(word_a, pa, word_b, pb):
    options = [EPSILON]
    if pa < len(word_a) and pb < len(word_b) and word_a[pa] == word_b[pb]:
        options.append(word_a[pa])
    return options


def _advance(pa, pb, entry):
    if entry == EPSILON:
        return pa, pb
    return pa + 1, pb + 1


def _v_candidates(dfa: Dfa, u: str, slots: int, relaxed: bool, pruned: bool):
    """The words v the matrix search tries against u, in search order."""
    balance = Counter(u)
    classes = None if relaxed else _l5_v_classes(dfa, u)
    # every matrix entry is read once by the two row words and once by
    # the two mixed words, so v carries exactly the letters of u; its
    # running a-minus-b count is likewise pinched by u's prefix sums
    sums_u = _prefix_sums(u)
    lo = 2 * min(sums_u) - max(sums_u)
    hi = 2 * max(sums_u) - min(sums_u)
    lengths = (len(u),) if pruned else tuple(range(1, 2 * slots + 1))
    candidates = []
    for length in lengths:
        for tup in itertools.product("ab", repeat=length):
            v = "".join(tup)
            if classes is not None and dfa.word_action(v) not in classes:
                continue
            if pruned:
                if Counter(v) != balance:
                    continue
                run = 0
                ok = True
                for ch in v:
                    run += 1 if ch == "a" else -1
                    if not lo <= run <= hi:
                        ok = False
                        break
                if not ok:
                    continue
            candidates.append(v)
    return candidates


def search_local_reduction_nonexistence(s_max: int = 1, relaxed: bool = False,
                                        pruned: bool = True) -> NonexistenceReport:
    """Exhaust the bounded shape of a local PDISJ reduction to the
    five-state language: three bit combinations must read a power of the
    idempotent word, the fourth a word from the derived transition classes.

    ``relaxed`` drops the transition-class requirement on v (the sanity
    inversion; a matrix then exists, e.g. with both rows equal).
    ``pruned`` applies the letter-balance count filter before the matrix
    search.
    """
    if not (1 <= s_max <= 3):
        raise CcError("s_max must be between 1 and 3")
    dfa = builtin_language("L5")
    slots = 4 * s_max
    u_words = tuple(base * k for base in ("abab", "baba")
                    for k in range(1, s_max + 1))

    matrices = []
    v_counts = []
    for u in u_words:
        candidates = _v_candidates(dfa, u, slots, relaxed, pruned)
        v_counts.append((u, len(candidates)))
        for v in candidates:
            found = _matrix_dfs(u, v, slots)
            if found is not None:
                matrices.append((u, v, found[0], found[1]))
                if relaxed:
                    return NonexistenceReport(s_max, relaxed, pruned, u_words,
                                              tuple(v_counts), tuple(matrices),
                                              False)
    return NonexistenceReport(s_max, relaxed, pruned, u_words,
                              tuple(v_counts), tuple(matrices), not matrices)
