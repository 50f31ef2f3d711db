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
    FiniteMonoid, OrderedMonoid, commutative_quotient, divides, division_map,
    eval_word, exponent, find_tq, nonabelian_subgroup_witness,
    syntactic_ordered_monoid, transition_monoid,
)
# not called here (nonabelian_subgroup_witness walks the subgroups); kept
# because perfbench/spans.py traces the binding regcc.classify.maximal_subgroups
from .monoid import maximal_subgroups  # noqa: F401

TIERS = ("CONSTANT", "LOG_LOWER", "LINEAR_LOWER", "UNRESOLVED_GAP")

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

def _generator_words(m: FiniteMonoid, lo: int, hi: int):
    letters = sorted(m.generator_map)
    for n in range(lo, hi + 1):
        for tup in itertools.product(letters, repeat=n):
            yield "".join(tup)


def _rearrangements(word: str):
    """Distinct rearrangements of ``word`` in lexicographic order: the words
    with its letter counts, in the order ``_generator_words`` meets them."""
    letters = sorted(word)
    while True:
        yield "".join(letters)
        i = len(letters) - 2
        while i >= 0 and letters[i] >= letters[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(letters) - 1
        while letters[j] <= letters[i]:
            j -= 1
        letters[i], letters[j] = letters[j], letters[i]
        letters[i + 1:] = reversed(letters[i + 1:])


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


def shuffles(w1: str, w2: str):
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


def find_shuffle_witness(om: OrderedMonoid, max_len: int = DEFAULT_WITNESS_LEN):
    """First (u, w1, w2, v) in canonical order with u = w1 w2, v a shuffle
    of w1 and w2, eval(u) idempotent, and eval(u v u) not below eval(u)."""
    if max_len > MAX_WITNESS_LEN:
        raise CcError("witness length capped at %d" % MAX_WITNESS_LEN)
    m = om.monoid
    for u in _generator_words(m, 1, max_len):
        eu = eval_word(m, u)
        if m.mul(eu, eu) != eu:
            continue
        for i in range(len(u) + 1):
            w1, w2 = u[:i], u[i:]
            for v in shuffles(w1, w2):
                x = m.mul(m.mul(eu, eval_word(m, v)), eu)
                if not om.leq(x, eu):
                    witness = (u, w1, w2, v)
                    if not _replay_shuffle(om, *witness):
                        raise CcError("shuffle witness %r fails its replay" % (witness,))
                    return witness
    return None


def _replay_shuffle(om, u, w1, w2, v):
    m = om.monoid
    if u != w1 + w2 or not is_shuffle(v, w1, w2):
        return False
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
    Equal letter counts force equal length, so v runs over the
    rearrangements of u.
    """
    if max_len > MAX_WITNESS_LEN:
        raise CcError("witness length capped at %d" % MAX_WITNESS_LEN)
    m = om.monoid
    omega = exponent(m)
    for u in _generator_words(m, 1, max_len):
        eu = eval_word(m, u)
        if m.mul(eu, eu) != eu:
            continue
        uw = m.power(eu, omega)
        for v in _rearrangements(u):
            x = m.mul(m.mul(uw, eval_word(m, v)), uw)
            if not om.leq(x, uw):
                if not _replay_polcom(om, u, v):
                    raise CcError("polcom witness %r fails its replay" % ((u, v),))
                return u, v
    return None


def _replay_polcom(om, u, v):
    m = om.monoid
    quotient, proj = commutative_quotient(m)
    pu = proj(eval_word(m, u))
    if proj(eval_word(m, v)) != pu or quotient.mul(pu, pu) != pu:
        return False
    uw = m.power(eval_word(m, u), exponent(m))
    return not om.leq(m.mul(m.mul(uw, eval_word(m, v)), uw), uw)


# ---------------------------------------------------------------------------
# classification

def _resolve(obj):
    if isinstance(obj, Dfa):
        om, _, ideal = syntactic_ordered_monoid(obj)
        return om, ideal
    if isinstance(obj, OrderedMonoid):
        return obj, None
    raise CcError("classify expects a Dfa or an OrderedMonoid")


def _noncommuting_pair(om: OrderedMonoid):
    m = om.monoid
    for a in range(m.size):
        for b in range(a + 1, m.size):
            ab, ba = m.mul(a, b), m.mul(b, a)
            if ab != ba:
                if not om.leq(ba, ab):
                    return a, b, "ba_nleq_ab"
                return a, b, "ab_nleq_ba"
    return None


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

    pair = _noncommuting_pair(om)
    if pair is None:
        certificates.append(Certificate.make("commutative"))
        return Classification("CONSTANT", tuple(certificates),
                              tuple(sorted(bounds.items())))

    a, b, direction = pair
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
        return all(m.mul(x, y) == m.mul(y, x)
                   for x in range(m.size) for y in range(m.size))
    if cert.kind == "noncommuting_pair":
        a = _element_by_name(m, data["a"])
        b = _element_by_name(m, data["b"])
        ab, ba = m.mul(a, b), m.mul(b, a)
        if ab == ba:
            return False
        if data["direction"] == "ba_nleq_ab":
            return not om.leq(ba, ab)
        return not om.leq(ab, ba)
    if cert.kind == "tq":
        e = _element_by_name(m, data["e"])
        f = _element_by_name(m, data["f"])
        q = data["q"]
        if m.mul(e, e) != e or m.mul(f, f) != f or q < 2:
            return False
        ef = m.mul(e, f)
        x = e
        for i in range(1, q + 1):
            x = m.mul(ef, x)
            if x == e:
                return i == q
        return False
    if cert.kind == "nonabelian_subgroup":
        e = _element_by_name(m, data["e"])
        g1 = _element_by_name(m, data["g1"])
        g2 = _element_by_name(m, data["g2"])
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
        preimages = [_element_by_name(m, g) for g in data["generators"]]
        image = division_map(divisor, om, preimages)
        return image is not None and len(image) == data["submonoid_size"]
    if cert.kind == "shuffle":
        return _replay_shuffle(om, data["u"], data["w1"], data["w2"], data["v"])
    if cert.kind == "polcom_exclusion":
        return _replay_polcom(om, data["u"], data["v"])
    raise CcError("unknown certificate kind %r" % cert.kind)


def _element_by_name(m: FiniteMonoid, name: str):
    return eval_word(m, name)


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
