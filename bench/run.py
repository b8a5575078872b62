"""End-to-end and per-layer benchmark of the hmfp command line.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

bench/README.md describes the workloads, the metrics and the output.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"
SETUP_SAMPLES = 10     # set-up samples per run, after the passes
REF_S = 0.1            # nominal seconds of one reference load (see reference_load)
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MACHINE_NOTE = ("the benchmark pins no CPUs and controls no caches or CPU "
                "frequency; on a shared host other tenants' load moves every time")


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cap_threads():
    """Pin BLAS and OpenMP pools to the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_hmfp():
    """Import hmfp.cli from the checkout's src/, or exit without a result."""
    if not os.path.isdir(os.path.join(SRC, "hmfp")):
        sys.exit("bench: no hmfp sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import hmfp.cli
    if not os.path.abspath(hmfp.cli.__file__).startswith(SRC + os.sep):
        sys.exit("bench: hmfp imported from %s, not %s" % (hmfp.cli.__file__, SRC))
    return hmfp.cli


def machine_facts(nproc):
    import numpy
    facts = {"nproc": nproc, "python": platform.python_version(),
             "numpy": numpy.__version__,
             "threads": {var: os.environ[var] for var in THREAD_VARS},
             "note": MACHINE_NOTE}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    return facts


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it.

    None below eleven samples, where no percentile has ten beyond it.
    """
    n = len(samples)
    if n < 11:
        return None
    p = int(100 * (1.0 - 10.0 / n))
    k = max(0, p * n // 100 - 1)
    return {"percentile": p, "value": sorted(samples)[k]}


# ---------------------------------------------------------------------------
# Passes


def run_pass(cli, plan):
    """Run every command in-process; returns (wall seconds, outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for command in plan.commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command.argv)
            outcomes.append((code, None, out.getvalue(), err.getvalue()))
        except Exception as exc:  # a crash is a failed operation, not the end
            outcomes.append((None, exc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outcomes


def check_pass(plan, outcomes):
    """Check each command's artifacts; returns (failures, facts)."""
    failures, facts = [], []
    for command, (code, exc, out, err) in zip(plan.commands, outcomes):
        name = command.argv[0]
        fact = {}
        if exc is not None:
            failures.append("%s raised %s: %s" % (name, type(exc).__name__, exc))
        elif code != 0:
            failures.append("%s exited %r: %s" % (name, code, err.strip()))
        else:
            run_dir = out.partition(": ")[0].strip()
            try:
                fact = command.check(run_dir)
            except Exception as exc:  # any error while checking fails the check
                failures.append("%s: check failed: %s: %s"
                                % (name, type(exc).__name__, exc))
        facts.append(fact)
    return failures, facts


def manifest(work):
    """sha256 of every input and artifact under the work directory."""
    out = {}
    for base in ("inputs", "runs"):
        top = os.path.join(work, base)
        for dirpath, _, files in os.walk(top):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                out[os.path.relpath(path, work)] = digest
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Child processes


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _child(args, log):
    """Run child.py to completion (killed past the timeout); its exit code."""
    with open(log, "ab") as sink:
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py")] + args,
                                env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=sink, stderr=sink)
        try:
            return proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None


def setup_sample(plan, work):
    """Seconds a fresh interpreter takes to import hmfp.cli and parse configs.

    The span runs from just before the spawn to the child's own reading of
    the system-wide monotonic clock once the configs are parsed, so the
    interpreter's exit and the reaping do not count.
    """
    clock = os.path.join(work, "setup_clock.txt")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = _child(["setup", clock] + plan.configs, os.path.join(work, "children.log"))
    if code != 0:
        raise RuntimeError("setup child exited %r; see %s/children.log" % (code, work))
    with open(clock, encoding="utf-8") as fh:
        return float(fh.read()) - start


def measure_peak_rss(plan, work):
    """Peak RSS in MB of a fresh child running one pass, and its exit codes.

    The child reports its own VmHWM: the rusage of a child also counts the
    parent's resident set at the moment of the spawn.
    """
    plan_path = os.path.join(work, "pass.json")
    report_path = os.path.join(work, "pass_report.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump([c.argv for c in plan.commands], fh)
    code = _child(["pass", plan_path, report_path], os.path.join(work, "children.log"))
    if code != 0:
        raise RuntimeError("pass child exited %r; see %s/children.log" % (code, work))
    report = _load_json(report_path)
    return report["vm_hwm_kb"] / 1024.0, report["codes"]


# ---------------------------------------------------------------------------
# One workload


class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.reasons = []

    def add(self, n, failures):
        self.attempted += n
        self.reasons.extend(failures)

    @property
    def failed(self):
        return len(self.reasons)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


def checked_pass(cli, plan, work, tally, tracer=None):
    """One pass, traced if a tracer is given, then its output checks.

    The run directories are removed first, untimed, so the checks read
    only what this pass wrote.
    """
    shutil.rmtree(os.path.join(work, "runs"), ignore_errors=True)
    if tracer is not None:
        tracer.install()
    try:
        wall, outcomes = run_pass(cli, plan)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, facts = check_pass(plan, outcomes)
    tally.add(len(plan.commands), failures)
    return wall, facts


def reference_load():
    """A timer for a fixed load of numpy and pure Python that runs no hmfp code.

    On a shared host the speed of the machine drifts by up to half, in
    bursts and in stretches of tens of seconds, and every timing drifts
    with it.  The load mixes what hmfp spends its time on (FFTs, gathers,
    interpreter work); it takes about REF_S seconds when the host is quiet.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.random((256, 256))
    idx = rng.integers(0, a.size, a.size)

    def run():
        start = time.perf_counter()
        for _ in range(40):
            np.fft.irfft2(np.fft.rfft2(a), s=a.shape).ravel()[idx]
            total = 0
            for i in range(20000):
                total += i * i
        return time.perf_counter() - start

    return run


def referred(samples, refs):
    """Each sample times REF_S over the mean of the reference runs around it.

    refs[k] and refs[k + 1] are the reference timings just before and
    just after samples[k].  A stretch of slow host moves a sample and its
    references alike, and the ratio cancels most of it.
    """
    return [x * 2.0 * REF_S / (refs[k] + refs[k + 1]) for k, x in enumerate(samples)]


def end_to_end(cli, plan, work, seconds, tally):
    """setup_s, peak_rss_mb and wall_s, all with tracing off.

    A first untimed set-up child writes the bytecode caches, which every
    later CLI invocation finds in place.  The timed set-up samples follow
    the passes.  Each timed pass and set-up sample sits between two runs
    of the reference load, and wall_s and setup_s are the medians of the
    samples referred to it (see referred).  The raw samples are kept in
    the record.
    """
    setup_sample(plan, work)
    rss, codes = measure_peak_rss(plan, work)
    tally.add(len(codes), ["rss child: command %d exited %r" % (i, c)
                           for i, c in enumerate(codes) if c != 0])
    checked_pass(cli, plan, work, tally)
    first = manifest(work)
    reference = reference_load()
    refs, walls = [reference()], []
    while sum(walls) < seconds:
        wall, _ = checked_pass(cli, plan, work, tally)
        walls.append(wall)
        refs.append(reference())
    last = manifest(work)
    setup = []
    for _ in range(SETUP_SAMPLES):
        setup.append(setup_sample(plan, work))
        refs.append(reference())
    wall_ref = referred(walls, refs)
    setup_ref = referred(setup, refs[len(walls):])
    metrics = {
        "wall_s": {"value": statistics.median(wall_ref), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    detail = {"wall_s_samples": wall_ref, "wall_s_tail": tail_percentile(wall_ref),
              "setup_s_samples": setup_ref, "raw_wall_s_samples": walls,
              "raw_setup_s_samples": setup, "reference_s_samples": refs, "manifest": last,
              "manifest_repeats": first == last}
    return metrics, detail


def evaluate_predictions(checks, workload, metrics, wall):
    """Verdicts on the design.json checks that concern this workload."""
    selfs = {name[:-len(".self_s")]: v for name, v in metrics.items()
             if name.endswith(".self_s")}
    top = max(selfs, key=selfs.get)
    verdicts = []
    for check in checks:
        if workload not in check["workloads"]:
            continue
        name, claim = check["name"], check["claim"]
        calls = metrics[name + ".calls"]
        share = metrics[name + ".busy_s"] / wall
        if claim == "top_self":
            ok, seen = top == name, "top self time is %s" % top
        elif claim == "zero_calls":
            ok, seen = calls == 0, "%d calls" % calls
        elif claim == "calls_at_least":
            ok, seen = calls >= check["value"], "%d calls" % calls
        elif claim == "share_at_least":
            ok, seen = share >= check["value"], "share %.3f" % share
        elif claim == "share_at_most":
            ok, seen = share <= check["value"], "share %.3f" % share
        else:
            raise ValueError("unknown claim %r" % claim)
        verdicts.append({"claim": "%s %s%s" % (name, claim,
                                                " %g" % check["value"] if "value" in check else ""),
                         "held": ok, "seen": seen})
    return verdicts


def traced(cli, name, plan, work, seconds, tally, checks, stem):
    """Per-layer metrics from traced passes, each after a plain one.

    trace.overhead_s is the median over these pairs of the traced pass's
    wall time minus the plain one's.  The tracer adds a few microseconds
    per span, far below the machine's pass-to-pass noise, so the figure
    bounds the overhead rather than measuring it, and may read negative.
    """
    import tracer as tracing
    tracer = tracing.Tracer()
    checked_pass(cli, plan, work, tally)
    plain, traced_walls, stats, facts = [], [], [], None
    while sum(plain) + sum(traced_walls) < seconds or not traced_walls:
        wall, _ = checked_pass(cli, plan, work, tally)
        plain.append(wall)
        tracer.pass_id = len(traced_walls)
        wall, facts = checked_pass(cli, plan, work, tally, tracer)
        traced_walls.append(wall)
        stats.append(tracer.pass_stats(tracer.pass_id))
    metrics = tracing.layer_metrics(stats)
    traced_wall = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced_walls, plain))

    # exact-count self-check: a call site the tracer failed to rebind
    # shows up as a count below the one the workload implies
    problems = []
    counts = [tracing.counts_of(s) for s in stats]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced passes")
    for target, want in plan.expected(facts, metrics).items():
        key = target if target in metrics else target + ".calls"
        if metrics[key] != want:
            problems.append("self-check: %s = %r, expected %r" % (key, metrics[key], want))
    spans = stem + "-spans.json"
    with open(spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.span_records(), fh)
    detail = {"traced_wall_s": traced_walls, "untraced_wall_s": plain,
              "bindings": tracer.bindings, "self_check": problems or "passed",
              "predictions": evaluate_predictions(checks, name, metrics, traced_wall),
              "spans": spans}
    units = dict(tracing.metric_names(), **{"trace.overhead_s": "s"})
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return out, detail, problems


def run_workload(cli, name, build, args, facts, checks):
    work = os.path.join(OUT, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = build(work, args.seed)
    stem = os.path.join(OUT, "results", "%s-seed%d-trace%d" % (name, args.seed, args.trace))
    tally = Tally()
    problems = []
    if args.trace:
        metrics, detail, problems = traced(cli, name, plan, work, args.seconds, tally,
                                           checks, stem)
        for verdict in detail["predictions"]:
            print("%s: prediction %s: %s (%s)" % (
                name, "held" if verdict["held"] else "WRONG",
                verdict["claim"], verdict["seen"]))
    else:
        metrics, detail = end_to_end(cli, plan, work, args.seconds, tally)
    detail.update({"workload": name, "seed": args.seed, "trace": args.trace,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "error_rate": {"value": tally.error_rate, "unit": "ratio"},
                   "failures": tally.reasons, "machine": facts,
                   "metrics": metrics})
    path = stem + ".json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    correct = tally.failed == 0 and not problems
    for reason in tally.reasons + problems:
        print("%s: %s" % (name, reason))
    return correct, tally, metrics, path


def main(argv=None):
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    design = _load_json(os.path.join(BENCH, "design.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or all")
    parser.add_argument("--seed", type=int, default=design["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    os.chdir(ROOT)
    cli = import_hmfp()
    sys.path.insert(0, BENCH)
    import workloads
    if args.workload == "all":
        names = tuple(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = (args.workload,)
    else:
        parser.error("unknown workload %r; choose from %s or all"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    facts = machine_facts(nproc)

    correct, attempted, failed, merged = True, 0, 0, {}
    for name in names:
        ok, tally, metrics, path = run_workload(cli, name, workloads.WORKLOADS[name],
                                                args, facts, design["checks"])
        if sorted(metrics) != sorted(declared):
            sys.exit("bench: metrics %s do not match BENCHMARK.json"
                     % sorted(set(metrics) ^ set(declared)))
        correct &= ok
        attempted += tally.attempted
        failed += tally.failed
        if len(names) > 1:
            print("%-24s %-12s %.6g ratio" % (name, "error_rate", tally.error_rate))
            for metric, m in metrics.items():
                print("%-24s %-12s %.6g %s" % (name, metric, m["value"], m["unit"]))
            merged.update({"%s.%s" % (name, k): v for k, v in metrics.items()})
        else:
            print("error_rate %.6g ratio; details in %s" % (tally.error_rate, path))
            merged = metrics
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
