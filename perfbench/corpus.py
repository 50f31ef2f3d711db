"""Seeded corpus of random binary DFAs, screened by the benchmark's own code.

Nothing here imports regcc: minimization and the transformation-monoid
count are re-implemented, so a given seed yields the same corpus on every
commit of the program under test.

A DFA is drawn with 3 to 6 states, random transitions on ``a`` and ``b``
and each state accepting with probability 1/2.  Its minimal DFA's
transition monoid M is then measured and the DFA is kept if it falls in a
stratum that is not full yet.  Strata fix, for every seed, how many DFAs
come from each region of the input space the classifier's cost depends on:

* ``small`` (|M| <= 12): commutative monoids end at the first certificate;
  non-commutative ones run every witness search and, with |M| <= 12, the
  exhaustive division search, whose work doubles with each element.
* ``mid`` (13 <= |M| <= 60): division is capped; witness searches dominate.
* ``large`` (61 <= |M| <= 140): the syntactic order builds one context set
  per element, work that grows with |M|^3.  Above |M| = 140 one job takes
  1 to 6 s and its time varies twofold at equal |M|, so a seeded handful of
  them would set the run's total by itself.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

MAX_ELEMENTS = 140
MAX_DRAWS = 400_000

# (band, |M| low, |M| high, commutative or None for either, count)
STRATA = (
    ("small", 1, 12, True, 16),
    ("small", 3, 5, False, 40),
    ("small", 6, 8, False, 40),
    ("small", 9, 12, False, 24),
    ("mid", 13, 60, None, 50),
    ("large", 61, 80, None, 20),
    ("large", 81, 100, None, 20),
    ("large", 101, 120, None, 20),
    ("large", 121, 140, None, 6),
)


@dataclass(frozen=True)
class CorpusDfa:
    band: str
    elements: int        # |M| of the minimal DFA's transition monoid
    commutative: bool
    text: str            # regcc DFA file format


def _minimize(initial, accepting, moves):
    """Reachable part, then Moore refinement; returns the class count and
    the moves between classes, numbered in first-seen order."""
    order = [initial]
    seen = {initial}
    for s in order:
        for mv in moves:
            if mv[s] not in seen:
                seen.add(mv[s])
                order.append(mv[s])
    block = {s: int(s in accepting) for s in order}
    while True:
        ids = {}
        refined = {}
        for s in order:
            sig = (block[s],) + tuple(block[mv[s]] for mv in moves)
            refined[s] = ids.setdefault(sig, len(ids))
        stable = len(ids) == len(set(block.values()))
        block = refined
        if stable:
            break
    count = len(set(block.values()))
    min_moves = [[0] * count for _ in moves]
    for s in order:
        for k, mv in enumerate(moves):
            min_moves[k][block[s]] = block[mv[s]]
    return count, min_moves


def _monoid_size(moves, count, cap):
    """|M| of the transition monoid, or None above cap."""
    identity = tuple(range(count))
    seen = {identity}
    queue = [identity]
    for t in queue:
        for mv in moves:
            nt = tuple(mv[s] for s in t)
            if nt not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(nt)
                queue.append(nt)
    return len(seen)


def _dfa_text(states, accepting, moves):
    return ("alphabet: a,b\nstates: %d\ninitial: 0\naccepting: %s\n"
            "transitions:\na: %s\nb: %s\n"
            % (states, ",".join(map(str, sorted(accepting))),
               ",".join(map(str, moves[0])), ",".join(map(str, moves[1]))))


def build_corpus(seed: int) -> list[CorpusDfa]:
    rng = random.Random(seed)
    filled = [0] * len(STRATA)
    out = []
    for _ in range(MAX_DRAWS):
        if all(f == s[-1] for f, s in zip(filled, STRATA)):
            return out
        states = rng.randint(3, 6)
        moves = [[rng.randrange(states) for _ in range(states)] for _ in "ab"]
        accepting = {s for s in range(states) if rng.random() < 0.5}
        count, mmoves = _minimize(0, accepting, moves)
        size = _monoid_size(mmoves, count, MAX_ELEMENTS)
        if size is None:
            continue
        # the monoid is generated by the two letters, so it is commutative
        # iff their actions commute
        a, b = mmoves
        commutative = all(a[b[s]] == b[a[s]] for s in range(count))
        for k, (band, lo, hi, comm, want) in enumerate(STRATA):
            if filled[k] < want and lo <= size <= hi and \
                    comm in (None, commutative):
                filled[k] += 1
                out.append(CorpusDfa(band, size, commutative,
                                     _dfa_text(states, accepting, moves)))
                break
    raise RuntimeError("corpus strata not filled within %d draws" % MAX_DRAWS)


def corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for d in corpus:
        h.update(d.text.encode())
    return h.hexdigest()
