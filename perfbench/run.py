"""regcc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify_corpus --seed 1 \\
        --seconds 35 --trace 0

Run from the root of a source checkout; regcc is imported from its
``src/``.  A single closed-loop client in one process and thread runs the
workload's fixed job list (see ``jobs.py``) pass after pass until the time
is up, checks every answer, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones (``spans.py``).
Details of the run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import corpus
import hostspeed
import jobs
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("classify_corpus", "oracles_total", "oracles_promise")
SETUP_PROBES = 5
PROBE_CALIBRATIONS = 200    # kernel samples on each side of a probe
TAIL_BEYOND = 10          # jobs beyond the reported tail percentile


def import_regcc():
    """regcc from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "regcc" / "__init__.py").is_file():
        raise SystemExit("error: no regcc sources under %s" % src)
    sys.path.insert(0, str(src))
    import regcc
    import regcc.cli  # noqa: F401  (submodules the jobs and spans reach)
    import regcc.reductions  # noqa: F401
    if src.resolve() not in Path(regcc.__file__).resolve().parents:
        raise SystemExit("error: regcc resolved to %s" % regcc.__file__)
    return regcc


def prepare(workload, seed, workdir):
    """The workload's inputs: a job list, plus the corpus digest."""
    if workload == "classify_corpus":
        dfas = corpus.build_corpus(seed)
        return jobs.classify_jobs(dfas, workdir), corpus.corpus_digest(dfas)
    functions, skip = {
        "oracles_total": (jobs.TOTAL_FUNCTIONS, set()),
        "oracles_promise": (jobs.PROMISE_FUNCTIONS, jobs.PROMISE_SKIP),
    }[workload]
    job_list = jobs.oracle_jobs(functions, skip, seed)
    digest = hashlib.sha256("\n".join(j.key for j in job_list).encode()).hexdigest()
    return job_list, digest


def setup_probe(workload, seed):
    """Time import plus input generation in this fresh process, with the
    host calibrated just before and just after; prints both."""
    calibration = hostspeed.Calibration()
    calibration.sample(PROBE_CALIBRATIONS)
    start = time.perf_counter()
    import_regcc()
    workdir = OUT / ("probe-%d" % time.monotonic_ns())
    workdir.mkdir(parents=True)
    try:
        prepare(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir)
    seconds = time.perf_counter() - start
    calibration.sample(PROBE_CALIBRATIONS)
    print(repr(seconds), repr(calibration.factor()))


def measure_setup(workload, seed):
    """Median over fresh processes of set-up time at the reference speed;
    also returns the raw (seconds, factor) samples."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, factor = map(float, proc.stdout.split()[-2:])
        samples.append((seconds, factor))
    return statistics.median(s * f for s, f in samples), samples


# ---------------------------------------------------------------------------
# checking

def check_pass(job_list, outcomes):
    """Validate a whole pass; returns {job key: error} for failed jobs."""
    failed = {j.key: o.error for j, o in zip(job_list, outcomes) if o.error}
    answers = {}
    for job, outcome in zip(job_list, outcomes):
        if outcome.error:
            continue
        try:
            if job.kind == "classify":
                # the job itself read every certificate as replay=ok
                bad = [r for r in outcome.replays if " PASS " not in r]
                if bad:
                    raise checks.CheckError(bad[0])
                continue
            rows, text, z = job.rows, outcome.stdout, job.color
            got = answers.setdefault(job.instance, {})
            if job.kind == "exact":
                got["bits"], got["leaves"] = checks.check_tree(rows, text)
            elif job.kind == "disjoint":
                got["disjoint"] = checks.check_disjoint(rows, text)
            elif job.kind == "cover":
                got[("cover", z)] = checks.check_cover(rows, text, z)
            else:
                got[("fooling", z)] = checks.check_fooling(rows, text, z)
        except (checks.CheckError, KeyError, ValueError, IndexError) as exc:
            failed[job.key] = "check: %s: %s" % (type(exc).__name__, exc)
    # cross-checks of an instance whose every answer passed; a failure is
    # charged to its disjoint-cover job
    broken = {j.instance for j in job_list if j.key in failed}
    for job in job_list:
        if job.kind == "disjoint" and job.instance not in broken:
            try:
                checks.check_instance(*job.instance, answers[job.instance])
            except checks.CheckError as exc:
                failed[job.key] = "instance check: %s" % exc
    return failed


def digest(outcomes):
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.stdout.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# running

def run_pass(regcc, capture, job_list, calibration, tracer=None):
    """One pass over the job list; the host is calibrated after each job,
    outside its timed region."""
    gc.collect()
    outcomes = []
    for job in job_list:
        if tracer is None:
            outcome = jobs.run_job(regcc, capture, job)
        else:
            with tracer.job_span(job.key):
                outcome = jobs.run_job(regcc, capture, job)
            tracer.counts["cli.stdout_bytes"] += len(outcome.stdout.encode())
        calibration.after(outcome.seconds)
        outcomes.append(outcome)
    return outcomes


def tail_index(count):
    """Index, in ascending order, of the highest percentile with at least
    TAIL_BEYOND jobs beyond it (the maximum for short lists)."""
    return max(0, count - TAIL_BEYOND - 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    regcc = import_regcc()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = OUT / ("work-" + tag)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        job_list, input_digest = prepare(args.workload, args.seed, workdir)
        if not args.trace:
            setup_s, setup_samples = measure_setup(args.workload, args.seed)
        capture = jobs.MonoidCapture(regcc.cli.syntactic_ordered_monoid)
        regcc.cli.syntactic_ordered_monoid = capture
        result = measure(regcc, capture, job_list, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["info"].update(
        workload=args.workload, seed=args.seed, input_sha256=input_digest,
        regcc_module=regcc.__file__, git_head=git_head(),
        src_sha256=source_digest())
    if args.trace:
        result["tracer"].dump(OUT / ("spans-%s.jsonl" % tag))
    else:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["info"]["setup_samples"] = setup_samples
    del result["tracer"]
    (OUT / ("result-%s.json" % tag)).write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    info = result["info"]
    for key in ("workload", "seed", "passes", "regcc_module", "git_head",
                "src_sha256", "input_sha256", "stdout_sha256", "host_factor",
                "raw_wall_s", "failed_frac", "job_tail_ms"):
        print("%s: %s" % (key, info[key]))
    for key, why in sorted(info["failures"].items()):
        print("FAILED %s: %s" % (key, why))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(regcc, capture, job_list, args):
    """Passes until the time is up.  The first pass is checked in full and
    every later pass must print byte-identical output.  A traced run
    alternates untraced and traced passes, starting untraced."""
    tracer = spans.Tracer()
    calibration = hostspeed.Calibration()
    wall = {False: [], True: []}       # job seconds per pass, by tracing
    per_job = {j.key: [] for j in job_list}
    layer, counts = [], []
    attempted = failed_count = 0
    failures = {}
    reference = None
    start = time.perf_counter()
    pass_no = 0
    while True:
        traced = bool(args.trace) and pass_no % 2 == 1
        if traced:
            with tracer.installed(pass_no):
                outcomes = run_pass(regcc, capture, job_list, calibration, tracer)
            layer.append(tracer.layer_metrics(pass_no))
            counts.append(tracer.pass_counts())
        else:
            outcomes = run_pass(regcc, capture, job_list, calibration)
        if reference is None:
            reference = outcomes
            failed = check_pass(job_list, outcomes)
        else:
            failed = {j.key: o.error or "output differs from the first pass"
                      for j, o, r in zip(job_list, outcomes, reference)
                      if o.error or o.stdout != r.stdout}
        attempted += len(outcomes)
        failed_count += len(failed)
        for key, why in failed.items():
            failures.setdefault(key, why)
        wall[traced].append(sum(o.seconds for o in outcomes))
        if not traced:
            for j, o in zip(job_list, outcomes):
                per_job[j.key].append(o.seconds)
        pass_no += 1
        elapsed = time.perf_counter() - start
        if (wall[True] or not args.trace) and \
                elapsed + elapsed / pass_no > args.seconds:
            break

    # times at the reference host speed; the raw ones stay in info
    factor = calibration.factor()
    wall_s = statistics.median(wall[False])
    latency = sorted(statistics.median(v) * factor for v in per_job.values())
    tail = tail_index(len(latency))
    info = {
        "passes": pass_no, "host_factor": factor, "raw_wall_s": wall_s,
        "pass_wall_s": {"untraced": wall[False], "traced": wall[True]},
        "stdout_sha256": digest(reference),
        "failed_frac": failed_count / attempted,
        "failures": failures,
        # not a gated metric: on the oracle workloads it names one job, whose
        # time varies by a fifth from run to run on a shared host
        "job_tail_ms": "%r ms (p%.2f of %d jobs)" % (
            1000 * latency[tail], 100.0 * (tail + 1) / len(latency),
            len(latency)),
        "job_ms": {k: 1000 * statistics.median(v) for k, v in per_job.items()},
    }
    if args.trace:
        metrics = {}
        for name in layer[0]:
            value = statistics.median(p[name] for p in layer)
            if name.endswith(".calls"):
                metrics[name] = {"value": value, "unit": "count"}
            else:
                metrics[name] = {"value": value * factor, "unit": "s"}
        for name in spans.COUNTS:
            unit = "bytes" if name.endswith("_bytes") else "count"
            metrics[name] = {"value": counts[0][name], "unit": unit}
        calls = layer[0]["monoid.divides.calls"]
        decided = calls - counts[0]["monoid.divides.capped"]
        metrics["monoid.divides.decided_ratio"] = {
            "value": decided / calls if calls else 0.0, "unit": "ratio"}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(wall[True]) / wall_s, "unit": "ratio"}
        steady = all(c == counts[0] for c in counts) and all(
            p[k] == layer[0][k] for p in layer for k in p if k.endswith(".calls"))
        if not steady:
            failures["trace"] = "work counts differ between traced passes"
    else:
        metrics = {
            "wall_s": {"value": wall_s * factor, "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(latency), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    return {"correct": not failures, "attempted": attempted,
            "failed": failed_count, "metrics": metrics, "info": info,
            "tracer": tracer}


def git_head():
    """HEAD of the checkout when it is a git repository of its own."""
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "regcc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
