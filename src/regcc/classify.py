"""Non-deterministic communication-complexity classification.

A regular language (or ordered monoid) lands in one of four tiers:

* CONSTANT        - commutative syntactic monoid;
* LOG_LOWER       - non-commutative, so at least logarithmic, with no
                    stronger certificate found within the search bounds;
* LINEAR_LOWER    - a certificate forces a linear lower bound: a T_q pair,
                    a non-abelian maximal subgroup, division by one of the
                    two canonical ordered monoids, or a shuffle witness;
* UNRESOLVED_GAP  - non-commutative with no linear certificate, but with a
                    witness excluding the language from the polynomial
                    closure of the commutative languages; the linear bound
                    in this region is conjectural, so the tool reports the
                    gap instead of guessing.

Every certificate carries enough data to be re-verified by direct
evaluation; ``verify_certificate`` replays them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .automata import CcError, Dfa, builtin_language
from .monoid import (
    FiniteMonoid, OrderedMonoid, check_property, divides, division_map,
    eval_word, find_tq, nonabelian_subgroup_witness,
    syntactic_ordered_monoid, tq_period, transition_monoid,
)
# not called here (nonabelian_subgroup_witness walks the subgroups); kept
# because perfbench/spans.py traces the binding regcc.classify.maximal_subgroups
from .monoid import maximal_subgroups  # noqa: F401

DEFAULT_WITNESS_LEN = 6
MAX_WITNESS_LEN = 8


@dataclass(frozen=True)
class Certificate:
    kind: str
    data: tuple[tuple[str, object], ...]

    def get(self, key):
        return dict(self.data)[key]

    @classmethod
    def make(cls, kind, **data):
        return cls(kind, tuple(sorted(data.items())))


@dataclass(frozen=True)
class Classification:
    tier: str
    certificates: tuple[Certificate, ...]
    search_bounds: tuple[tuple[str, object], ...]

    def certificate(self, kind) -> Certificate | None:
        for cert in self.certificates:
            if cert.kind == kind:
                return cert
        return None


# ---------------------------------------------------------------------------
# built-in monoids

def _tq_dfa(q: int) -> Dfa:
    # 2q points (i, A) = i and (i, B) = q + i; e folds B onto A, f rotates
    # A into the next B
    e = list(range(q)) + list(range(q))
    f = [q + (i + 1) % q for i in range(q)] + [q + i for i in range(q)]
    return Dfa.make("ef", 2 * q, 0, set(), {"e": e, "f": f})


def _s3_dfa() -> Dfa:
    # two transpositions generating the symmetric group on three states
    return Dfa.make("ab", 3, 0, set(), {"a": [1, 0, 2], "b": [2, 1, 0]})


BUILTIN_MONOID_NAMES = ("BA2_PLUS", "L5_MONOID", "S3", "TQ_EXAMPLE",
                        "U_MINUS", "U_PLUS", "Z3")

_SYNTACTIC_SOURCES = {
    "BA2_PLUS": "BA2_LANG",
    "U_MINUS": "U_MINUS_LANG",
    "U_PLUS": "U_PLUS_LANG",
    "L5_MONOID": "L5",
    "Z3": "Z3_LANG",
}


@functools.lru_cache
def builtin_monoid(name: str, q: int | None = None):
    """Named ordered monoid plus its distinguished ideal (None when the
    monoid does not come from a language).  Cached: classification and
    every division replay ask for the same divisors, and the results are
    frozen dataclasses."""
    if name in _SYNTACTIC_SOURCES:
        om, _, ideal = syntactic_ordered_monoid(builtin_language(_SYNTACTIC_SOURCES[name]))
        return om, ideal
    if name == "TQ_EXAMPLE":
        if q is None or q < 2:
            raise CcError("TQ_EXAMPLE requires q >= 2")
        m, _ = transition_monoid(_tq_dfa(q))
        return OrderedMonoid.with_equality(m), None
    if name == "S3":
        m, _ = transition_monoid(_s3_dfa())
        return OrderedMonoid.with_equality(m), None
    raise CcError("unknown built-in monoid %r" % name)


# ---------------------------------------------------------------------------
# witness searches

def _generator_words(m: FiniteMonoid, max_len: int):
    letters = sorted(m.generator_map)
    for n in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            yield "".join(tup)


def is_shuffle(v: str, w1: str, w2: str) -> bool:
    """True iff v interleaves w1 and w2 preserving their internal order."""
    if len(v) != len(w1) + len(w2):
        return False
    reach = {(0, 0)}
    for ch in v:
        reach = {(i + 1, j) for i, j in reach if i < len(w1) and w1[i] == ch} | \
                {(i, j + 1) for i, j in reach if j < len(w2) and w2[j] == ch}
        if not reach:
            return False
    return (len(w1), len(w2)) in reach


def _idempotent_words(om: OrderedMonoid, max_len: int):
    """(u, G) for each word u of length 1..max_len, by length and then
    lexicographically, whose value e is idempotent and whose G is not
    empty.  G, memoized per e, holds the elements y with e*y*e not below
    e: a word v completes a witness for u iff eval(v) is in G."""
    if not 1 <= max_len <= MAX_WITNESS_LEN:
        raise CcError("witness length must lie in 1..%d" % MAX_WITNESS_LEN)
    m = om.monoid
    table = m.table
    failing = {}
    for u in _generator_words(m, max_len):
        e = eval_word(m, u)
        if table[e][e] != e:
            continue
        if e not in failing:
            failing[e] = frozenset(y for y in range(m.size)
                                   if not om.leq(table[table[e][y]][e], e))
        if failing[e]:
            yield u, failing[e]


def _meets(om: OrderedMonoid, p: int, values, failing) -> bool:
    """True iff p*s lies in ``failing`` for some s in ``values``."""
    row = om.monoid.table[p]
    return any(row[s] in failing for s in values)


def find_shuffle_witness(om: OrderedMonoid, max_len: int = DEFAULT_WITNESS_LEN):
    """First (u, w1, w2, v) in canonical order with u = w1 w2, v a shuffle
    of w1 and w2, eval(u) idempotent, and eval(u v u) not below eval(u).

    The canonical order takes u by length then lexicographically, the
    split point i of u = w1 w2 upwards, and v in the first-word-first
    order of the interleavings: at each step, w1's next letter before
    w2's.  Splits 0 and |u| give v = u, and e*e*e = e is below e, so they
    are never tried.

    No interleaving is listed.  V(x, y), the set of values of all
    interleavings of the words x and y, is memoized for the whole search:
    V(x, '') = V('', x) = {eval(x)} and V(x, y) = g(x0)*V(x[1:], y) union
    g(y0)*V(x, y[1:]).  With G(e) from ``_idempotent_words``, a split is
    skipped when V(w1, w2) misses G(e).  Otherwise v is walked out with a
    prefix value p, taking w1's next letter g whenever p*g*V(rest) meets
    G(e), else w2's: that is the first succeeding leaf of the
    first-word-first walk.  Equal interleavings have one value, so the
    walk returns the same v whether or not duplicates are skipped.
    """
    m = om.monoid
    table, gens = m.table, m.generator_map
    values = {}

    def interleaved(x, y):
        found = values.get((x, y))
        if found is None:
            if not x or not y:
                found = frozenset((eval_word(m, x + y),))
            else:
                gx, gy = table[gens[x[0]]], table[gens[y[0]]]
                found = frozenset([gx[s] for s in interleaved(x[1:], y)] +
                                  [gy[s] for s in interleaved(x, y[1:])])
            values[x, y] = found
        return found

    for u, g in _idempotent_words(om, max_len):
        for split in range(1, len(u)):
            w1, w2 = u[:split], u[split:]
            if interleaved(w1, w2).isdisjoint(g):
                continue
            v, p, i, j = "", m.identity, 0, 0
            while i < len(w1) or j < len(w2):
                if i < len(w1):
                    q = table[p][gens[w1[i]]]
                    if _meets(om, q, interleaved(w1[i + 1:], w2[j:]), g):
                        v, p, i = v + w1[i], q, i + 1
                        continue
                v, p, j = v + w2[j], table[p][gens[w2[j]]], j + 1
            witness = (u, w1, w2, v)
            if not is_shuffle_witness(om, *witness):
                raise CcError("shuffle witness %r fails its replay" % (witness,))
            return witness
    return None


def is_shuffle_witness(om, u, w1, w2, v) -> bool:
    """The shuffle witness condition: u = w1 w2, v is a shuffle of w1 and
    w2, eval(u) is idempotent and eval(u v u) is not below eval(u)."""
    return u == w1 + w2 and is_shuffle(v, w1, w2) and _escapes(om, u, v)


def _escapes(om, u, v) -> bool:
    """The tail shared by the shuffle and polcom witnesses: eval(u) is
    idempotent and eval(u v u) is not below eval(u)."""
    m = om.monoid
    eu = eval_word(m, u)
    if m.mul(eu, eu) != eu:
        return False
    return not om.leq(m.mul(m.mul(eu, eval_word(m, v)), eu), eu)


def find_polcom_exclusion_witness(om: OrderedMonoid,
                                  max_len: int = DEFAULT_WITNESS_LEN):
    """First (u, v) in canonical order certifying exclusion from the
    polynomial closure of commutative languages.

    The search requires eval(u) idempotent and equal letter counts in u and
    v; both force the images of u, u^2 and v to agree under any morphism to
    a commutative monoid, which is the hypothesis under which membership
    would force eval(u^w v u^w) <= eval(u^w).  A pair with
    eval(u^w v u^w) not below eval(u^w) therefore excludes membership.
    Since eval(u) is idempotent, eval(u^w) = eval(u), so the test is
    eval(u v u) not below eval(u) and the monoid's exponent is never
    computed.  Equal letter counts force equal length, so v runs over the
    rearrangements of u in lexicographic order.

    No rearrangement is listed.  W(c), the set of values of the words
    with letter counts c, is memoized for the whole search: W(0) = {1} and
    W(c) is the union over letters a with c_a > 0 of g_a*W(c - e_a).  With
    G(e) from ``_idempotent_words``, u is skipped when W(counts of u) misses
    G(e); otherwise v is walked out with a prefix value p, taking at each
    step the least letter a with p*g_a*W(c - e_a) meeting G(e): that is
    the lexicographically first rearrangement that succeeds.
    """
    m = om.monoid
    table = m.table
    letters = sorted(m.generator_map)
    gens = [m.generator_map[a] for a in letters]
    values = {}

    def rearranged(counts):
        found = values.get(counts)
        if found is None:
            if not any(counts):
                found = frozenset((m.identity,))
            else:
                found = frozenset(
                    table[gens[k]][s] for k in range(len(gens)) if counts[k]
                    for s in rearranged(_spend(counts, k)))
            values[counts] = found
        return found

    for u, g in _idempotent_words(om, max_len):
        counts = tuple(map(u.count, letters))
        if rearranged(counts).isdisjoint(g):
            continue
        v, p = "", m.identity
        while any(counts):
            held = [k for k, c in enumerate(counts) if c]
            # some held letter succeeds, so the last one needs no check
            k = next((k for k in held[:-1]
                      if _meets(om, table[p][gens[k]], rearranged(_spend(counts, k)), g)),
                     held[-1])
            v, p, counts = v + letters[k], table[p][gens[k]], _spend(counts, k)
        if not _replay_polcom(om, u, v):
            raise CcError("polcom witness %r fails its replay" % ((u, v),))
        return u, v
    return None


def _spend(counts, k):
    """``counts`` with one fewer of letter k."""
    return counts[:k] + (counts[k] - 1,) + counts[k + 1:]


def _replay_polcom(om, u, v):
    """The search's hypotheses, checked directly: v is a rearrangement of
    u, eval(u) is idempotent, and eval(u^w v u^w) is not below eval(u^w),
    where eval(u^w) = eval(u) because eval(u) is idempotent.  Equal letter
    counts give u and v equal images under every morphism to a
    commutative monoid, and an idempotent maps to an idempotent, so no
    commutative quotient needs to be built."""
    return sorted(u) == sorted(v) and _escapes(om, u, v)


# ---------------------------------------------------------------------------
# classification

def _resolve(obj):
    if isinstance(obj, Dfa):
        om, _, ideal = syntactic_ordered_monoid(obj)
        return om, ideal
    if isinstance(obj, OrderedMonoid):
        return obj, None
    raise CcError("classify expects a Dfa or an OrderedMonoid")


def is_noncommuting_pair(om: OrderedMonoid, a: int, b: int) -> bool:
    """The noncommuting pair condition: ab != ba and ba is not below ab."""
    m = om.monoid
    ab, ba = m.mul(a, b), m.mul(b, a)
    return ab != ba and not om.leq(ba, ab)


LINEAR_KINDS = ("tq", "nonabelian_subgroup", "divides_ba2_plus",
                "divides_u_plus", "shuffle")
_DIVISORS = {"divides_ba2_plus": "BA2_PLUS", "divides_u_plus": "U_PLUS"}


def classify_nondet(obj, max_witness_len: int = DEFAULT_WITNESS_LEN) -> Classification:
    """Classify a language or ordered monoid, attempting every certificate.

    The certificate order is fixed: T_q orbit, non-abelian maximal
    subgroup, division by the two canonical ordered monoids, shuffle
    witness, then the polynomial-closure exclusion witness (reported as
    evidence only, never as a proven linear bound).
    """
    om, _ideal = _resolve(obj)
    m = om.monoid
    bounds = {"max_witness_len": max_witness_len}
    certificates = []

    commutative, pair = check_property(om, "commutative")
    if commutative:
        certificates.append(Certificate.make("commutative"))
        return Classification("CONSTANT", tuple(certificates),
                              tuple(sorted(bounds.items())))

    # ab != ba, so by antisymmetry ba is not below ab or ab is not below ba
    a, b = pair
    direction = "ba_nleq_ab" if is_noncommuting_pair(om, a, b) else "ab_nleq_ba"
    certificates.append(Certificate.make(
        "noncommuting_pair", a=m.names[a], b=m.names[b], direction=direction))

    tq = find_tq(m)
    if tq is not None:
        q, e, f = tq
        certificates.append(Certificate.make(
            "tq", q=q, e=m.names[e], f=m.names[f]))

    witness = nonabelian_subgroup_witness(m)
    if witness:
        e, g1, g2 = witness
        certificates.append(Certificate.make(
            "nonabelian_subgroup", e=m.names[e], g1=m.names[g1], g2=m.names[g2]))

    for kind, divisor_name in _DIVISORS.items():
        divisor, _ = builtin_monoid(divisor_name)
        ok, cert = divides(divisor, om)
        if ok:
            preimages, _, closure = cert
            certificates.append(Certificate.make(
                kind,
                generators=tuple(m.names[x] for x in preimages),
                submonoid_size=len(closure)))

    shuffle = find_shuffle_witness(om, max_witness_len)
    if shuffle is not None:
        u, w1, w2, v = shuffle
        certificates.append(Certificate.make("shuffle", u=u, w1=w1, w2=w2, v=v))

    polcom = find_polcom_exclusion_witness(om, max_witness_len)
    if polcom is not None:
        u, v = polcom
        certificates.append(Certificate.make("polcom_exclusion", u=u, v=v))

    kinds = {c.kind for c in certificates}
    if kinds & set(LINEAR_KINDS):
        tier = "LINEAR_LOWER"
    elif "polcom_exclusion" in kinds:
        tier = "UNRESOLVED_GAP"
    else:
        tier = "LOG_LOWER"
    return Classification(tier, tuple(certificates), tuple(sorted(bounds.items())))


def verify_certificate(om: OrderedMonoid, cert: Certificate) -> bool:
    """Replay a certificate by direct evaluation."""
    m = om.monoid
    data = dict(cert.data)
    if cert.kind == "commutative":
        return check_property(om, "commutative")[0]
    if cert.kind == "noncommuting_pair":
        a = eval_word(m, data["a"])
        b = eval_word(m, data["b"])
        if data["direction"] == "ba_nleq_ab":
            return is_noncommuting_pair(om, a, b)
        return is_noncommuting_pair(om, b, a)
    if cert.kind == "tq":
        e = eval_word(m, data["e"])
        f = eval_word(m, data["f"])
        return tq_period(m, e, f) == data["q"]
    if cert.kind == "nonabelian_subgroup":
        e = eval_word(m, data["e"])
        g1 = eval_word(m, data["g1"])
        g2 = eval_word(m, data["g2"])
        if m.mul(e, e) != e or m.mul(g1, g2) == m.mul(g2, g1):
            return False
        local = {m.mul(m.mul(e, x), e) for x in range(m.size)}
        for g in (g1, g2):
            if g not in local or \
                    not any(m.mul(g, h) == e and m.mul(h, g) == e for h in local):
                return False
        return True
    if cert.kind in _DIVISORS:
        divisor, _ = builtin_monoid(_DIVISORS[cert.kind])
        preimages = [eval_word(m, g) for g in data["generators"]]
        image = division_map(divisor, om, preimages)
        return image is not None and len(image) == data["submonoid_size"]
    if cert.kind == "shuffle":
        return is_shuffle_witness(om, data["u"], data["w1"], data["w2"], data["v"])
    if cert.kind == "polcom_exclusion":
        return _replay_polcom(om, data["u"], data["v"])
    raise CcError("unknown certificate kind %r" % cert.kind)


def serialize_classification(result: Classification,
                             om: OrderedMonoid | None = None) -> str:
    lines = ["tier: %s" % result.tier]
    for cert in result.certificates:
        payload = " ".join("%s=%s" % (k, v) for k, v in cert.data)
        line = "certificate: %s" % cert.kind
        if payload:
            line += " " + payload
        if om is not None:
            line += " replay=%s" % ("ok" if verify_certificate(om, cert) else "FAILED")
        lines.append(line)
    for key, value in result.search_bounds:
        lines.append("bound: %s=%s" % (key, value))
    return "\n".join(lines) + "\n"
