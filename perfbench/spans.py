"""Layer-boundary tracing for the traced benchmark run.

``Tracer.installed()`` replaces each traced public function, in the module
namespace that calls it, by a wrapper that records a span: id, job id,
name, parent id, start and end.  The originals come back when the block
ends, so an untraced pass runs the program untouched.  Spans stay in
memory; ``layer_metrics`` turns one pass's spans into self times, call
counts and the result counts below, and ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter

# (module, attribute, span name): every binding through which regcc or the
# benchmark reaches a layer's public function
BINDINGS = (
    ("regcc.cli", "main", "cli.main"),
    ("regcc.cli", "parse_dfa", "automata.parse_dfa"),
    ("regcc.monoid", "minimize", "automata.minimize"),
    ("regcc.cli", "syntactic_ordered_monoid", "monoid.syntactic_ordered_monoid"),
    ("regcc.classify", "syntactic_ordered_monoid", "monoid.syntactic_ordered_monoid"),
    ("regcc.reductions", "syntactic_ordered_monoid", "monoid.syntactic_ordered_monoid"),
    ("regcc.classify", "divides", "monoid.divides"),
    ("regcc.classify", "find_tq", "monoid.find_tq"),
    ("regcc.classify", "maximal_subgroups", "monoid.maximal_subgroups"),
    ("regcc.cli", "classify_nondet", "classify.classify_nondet"),
    ("regcc.classify", "find_shuffle_witness", "classify.find_shuffle_witness"),
    ("regcc.classify", "find_polcom_exclusion_witness",
     "classify.find_polcom_exclusion_witness"),
    ("regcc.classify", "verify_certificate", "classify.verify_certificate"),
    ("regcc.cli", "builtin_function", "commcc.builtin_function"),
    ("regcc.reductions", "builtin_function", "commcc.builtin_function"),
    ("regcc.cli", "min_disjoint_cover", "commcc.min_disjoint_cover"),
    ("regcc.commcc", "milp", "commcc.milp"),
    ("regcc.cli", "exact_deterministic_cc", "commcc.exact_deterministic_cc"),
    ("regcc.cli", "min_cover", "commcc.min_cover"),
    ("regcc.cli", "max_fooling_set", "commcc.max_fooling_set"),
    ("regcc.commcc", "max_fooling_set", "commcc.max_fooling_set"),
    ("regcc.reductions", "verify_reduction", "reductions.verify_reduction"),
    ("regcc.reductions", "encode_monoid_as_language",
     "reductions.encode_monoid_as_language"),
)

# span names reported as self time and as call counts
SELF_TIMES = (
    "automata.minimize", "automata.parse_dfa",
    "monoid.syntactic_ordered_monoid", "monoid.divides", "monoid.find_tq",
    "monoid.maximal_subgroups",
    "classify.classify_nondet", "classify.find_shuffle_witness",
    "classify.find_polcom_exclusion_witness", "classify.verify_certificate",
    "commcc.builtin_function", "commcc.min_disjoint_cover",
    "commcc.exact_deterministic_cc", "commcc.min_cover",
    "commcc.max_fooling_set",
    "reductions.verify_reduction", "reductions.encode_monoid_as_language",
    "cli.main",
)
CALLS = (
    "automata.minimize", "monoid.syntactic_ordered_monoid", "monoid.divides",
    "classify.verify_certificate", "commcc.min_disjoint_cover", "commcc.milp",
    "commcc.exact_deterministic_cc", "commcc.min_cover",
    "commcc.max_fooling_set", "reductions.verify_reduction",
)
TIERS = ("CONSTANT", "LOG_LOWER", "LINEAR_LOWER", "UNRESOLVED_GAP")
# result counts, see _observe; cli.stdout_bytes comes from the job runner
COUNTS = ("monoid.elements", "monoid.divides.capped", "classify.certificates") + \
    tuple("classify.tier." + t for t in TIERS) + \
    ("commcc.cover_rects", "commcc.protocol_bits", "commcc.fooling_cells",
     "reductions.checked_pairs", "cli.stdout_bytes")


def _observe(counts: Counter, name: str, result, error) -> None:
    """Result counts recorded at the boundary where the work happens."""
    if name == "monoid.divides":
        counts["monoid.divides.capped"] += type(error).__name__ == "CapError"
    if error is not None:
        return
    if name == "monoid.syntactic_ordered_monoid":
        counts["monoid.elements"] += result[0].size
    elif name == "classify.classify_nondet":
        counts["classify.certificates"] += len(result.certificates)
        counts["classify.tier." + result.tier] += 1
    elif name in ("commcc.min_cover", "commcc.min_disjoint_cover"):
        counts["commcc.cover_rects"] += result[0]
    elif name == "commcc.exact_deterministic_cc":
        counts["commcc.protocol_bits"] += result[0]
    elif name == "commcc.max_fooling_set":
        counts["commcc.fooling_cells"] += len(result)
    elif name == "reductions.verify_reduction":
        counts["reductions.checked_pairs"] += result.checked_pairs


class Tracer:
    def __init__(self):
        self.spans = []        # [id, job, name, parent, start, end, pass]
        self.stack = []
        self.job = None
        self.pass_no = 0
        self.counts = Counter()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [len(self.spans), self.job, name,
                    self.stack[-1][0] if self.stack else None,
                    time.perf_counter(), None, self.pass_no]
            self.spans.append(span)
            self.stack.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[5] = time.perf_counter()
                self.stack.pop()
                _observe(self.counts, name, result, error)
        return traced

    @contextlib.contextmanager
    def installed(self, pass_no):
        self.pass_no = pass_no
        saved = []
        try:
            for module, attr, name in BINDINGS:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def job_span(self, job_id):
        """Root span of one job; every span inside it shares ``job_id``."""
        self.job = job_id
        root = [len(self.spans), job_id, "bench.job", None,
                time.perf_counter(), None, self.pass_no]
        self.spans.append(root)
        self.stack.append(root)
        try:
            yield
        finally:
            self.stack.pop()
            root[5] = time.perf_counter()
            self.job = None

    def pass_counts(self):
        counts, self.counts = self.counts, Counter()
        return counts

    def layer_metrics(self, pass_no) -> dict[str, float]:
        """Self time and calls per span name for one traced pass."""
        spans = [s for s in self.spans if s[6] == pass_no]
        child_time = Counter()
        for s in spans:
            if s[3] is not None:
                child_time[s[3]] += s[5] - s[4]
        self_s, calls = Counter(), Counter()
        for s in spans:
            self_s[s[2]] += s[5] - s[4] - child_time[s[0]]
            calls[s[2]] += 1
        out = {name + ".self_s": self_s[name] for name in SELF_TIMES}
        out.update({name + ".calls": calls[name] for name in CALLS})
        out["commcc.milp.s"] = self_s["commcc.milp"]
        return out

    def dump(self, path) -> None:
        keys = ("id", "job", "name", "parent", "start", "end", "pass")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
