"""The three workloads as fixed, seeded job lists, and the job runner.

Every job is one ``regcc`` command run in-process through
``regcc.cli.main`` with standard output captured.  A ``classify`` job then
replays the reductions its certificates give, on the monoid the command
computed.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass

import checks

# (function name, extra CLI arguments, own-matrix keyword arguments)
TOTAL_FUNCTIONS = (
    ("EQ", (), {}), ("NEQ", (), {}), ("DISJ", (), {}), ("LT", (), {}),
    ("IP", ("--q", "2"), {"q": 2}), ("IP", ("--q", "3"), {"q": 3}),
)
PROMISE_FUNCTIONS = (
    ("PDISJ", (), {}),
    ("PIP2", ("--variant", "TWO_SIDED"), {"variant": "TWO_SIDED"}),
    ("PIP2", ("--variant", "ZERO_SIDED"), {"variant": "ZERO_SIDED"}),
)
# n = 3 of PIP2 ZERO_SIDED takes about 27 s (exact 11 s, disjoint 16 s),
# more than a whole run; its n = 1..2 instances stay in
PROMISE_SKIP = {("PIP2", "ZERO_SIDED", 3)}
REPLAY_N = 3              # verify_reduction runs n = 1..REPLAY_N
ENCODE_MAX_ELEMENTS = 12  # encode_monoid_as_language up to this |M|


@dataclass
class Job:
    key: str                         # stable across passes and commits
    argv: tuple[str, ...]
    kind: str                        # "classify", or the cc measure
    instance: tuple = ()             # (function label, n) for cc jobs
    color: int | None = None
    rows: tuple = ()                 # own matrix for cc jobs


def oracle_jobs(functions, skip, seed):
    """exact and disjoint, plus cover and fooling for each color present,
    for every function at n = 1..3; the seed shuffles the order."""
    jobs = []
    for name, extra, kwargs in functions:
        for n in (1, 2, 3):
            variant = kwargs.get("variant")
            if (name, variant, n) in skip:
                continue
            rows = checks.function_matrix(name, n, **kwargs)
            label = name + "".join(extra).replace("--", "_")
            args = (name, "--n", str(n)) + extra
            for measure in ("exact", "disjoint"):
                jobs.append(Job("%s/%d/%s" % (label, n, measure),
                                ("cc", measure) + args, measure, (label, n),
                                None, rows))
            for z in (0, 1):
                if any(str(z) in row for row in rows):
                    for measure in ("cover", "fooling"):
                        jobs.append(Job(
                            "%s/%d/%s%d" % (label, n, measure, z),
                            ("cc", measure) + args + ("--color", str(z)),
                            measure, (label, n), z, rows))
    random.Random(seed).shuffle(jobs)
    return jobs


def classify_jobs(corpus, workdir):
    jobs = []
    for k, d in enumerate(corpus):
        path = workdir / ("dfa-%03d.txt" % k)
        path.write_text(d.text, encoding="utf-8")
        jobs.append(Job("%s/%03d/M%d" % (d.band, k, d.elements),
                        ("classify", str(path)), "classify"))
    return jobs


class MonoidCapture:
    """Stands in for ``regcc.cli.syntactic_ordered_monoid`` and keeps the
    last automaton and result, so replays reuse the command's monoid."""

    def __init__(self, fn):
        self.fn = fn
        self.last = None

    def __call__(self, dfa, *args, **kwargs):
        result = self.fn(dfa, *args, **kwargs)
        self.last = (dfa, result)
        return result


def _replay(regcc, capture, stdout):
    """Replay each certificate's reduction where its preconditions hold;
    returns one line per replay."""
    red = regcc.reductions
    m_eval = regcc.monoid.eval_word
    dfa, (om, _gens, ideal) = capture.last
    m = om.monoid
    reductions = []
    for kind, f in checks.certificates(stdout):
        el = {key: m_eval(m, value) for key, value in f.items()
              if key in ("a", "b", "e", "f", "g1", "g2")}
        if kind == "noncommuting_pair":
            a, b = (el["a"], el["b"]) if f["direction"] == "ba_nleq_ab" \
                else (el["b"], el["a"])
            reductions.append(red.lt_reduction(om, a, b))
        elif kind == "tq":
            reductions.append(red.tq_reduction(om, el["e"], el["f"], int(f["q"])))
        elif kind == "shuffle":
            reductions.append(red.shuffle_reduction(om, f["u"], f["w1"], f["w2"], f["v"]))
        elif kind == "nonabelian_subgroup" and el["e"] == m.identity and \
                _units(m, el["g1"], el["g2"]) and \
                not any(x != m.identity and om.leq(x, m.identity)
                        for x in range(m.size)):
            reductions.append(red.group_reduction(om, el["g1"], el["g2"]))
    lines = []
    for reduction in reductions:
        report = red.verify_reduction(reduction, REPLAY_N)
        lines.append("replay: %s %s checked=%d"
                     % (reduction.name, report.status, report.checked_pairs))
    if m.size <= ENCODE_MAX_ELEMENTS:
        enc = red.encode_monoid_as_language(om, ideal, dfa)
        lines.append("replay: encode_monoid_as_language %s contexts=%d"
                     % ("PASS" if enc.replay_witness_table() else "FAIL",
                        len(enc.witness_table)))
    return lines


def _units(m, *elements):
    """True iff every element has a two-sided inverse in m."""
    return all(any(m.mul(x, h) == m.identity == m.mul(h, x)
                   for h in range(m.size)) for x in elements)


@dataclass
class Outcome:
    seconds: float
    stdout: str
    replays: list
    error: str | None


def run_job(regcc, capture, job) -> Outcome:
    """Run one job; the timed region is the command plus its replays."""
    out = io.StringIO()
    replays, error = [], None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = regcc.cli.main(list(job.argv))
        if code != 0:
            error = "exit code %s" % code
        elif job.kind == "classify":
            replays = _replay(regcc, capture, out.getvalue())
    except (Exception, SystemExit) as exc:  # a failed job, counted and reported
        error = "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    return Outcome(seconds, out.getvalue(), replays, error)
