"""Benchmark for the ncconvex command line.

    python3 perfbench/run.py --workload falsify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload in turn
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
its `src/` directory.  A single client drives `ncconvex.cli.main(argv)`
in-process in a closed loop: each job starts when the previous one has
finished and its output has been checked.  Jobs come in passes (see
workloads.py); the run repeats passes until `--seconds` have elapsed,
always finishing the pass it started.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: set-up time
of a fresh `python -m ncconvex` process, then the latency and throughput
of the untraced jobs.  --trace 1 prints the per-layer metrics: an
untraced phase and a traced phase of equal length, the layers wrapped
from outside by tracing.py.  The last stdout line is the result; the
line before it is a report with the sample counts, per-subcommand
latencies and the environment.
"""

import os

# one BLAS thread, pinned before numpy loads, so that the n = 64 matmuls
# measure the program and not the scheduler; children inherit it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KINDS = ("convexity", "verify", "convexity1", "monotone", "kraus", "certify",
         "eval", "axioms")
SETUP_REPEATS = 9
CALIBRATE_EVERY_S = 0.05
SETUP_ARGV = ("eval", "--expr", "x1^2", "--x-tuple", "identity2")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1,
                              int(-(-q * len(ordered) // 100)) - 1))]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


# -- phases -----------------------------------------------------------------


def measure_setup(ncconvex, tmp: str, repeats: int):
    """Times of fresh `python -m ncconvex eval` processes, spawn to exit,
    each scaled by the calibration kernels run just before and after
    it; the raw times; the number of processes whose output was wrong."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(ncconvex.__file__).resolve().parent.parent)
    scaled, raw, failed = [], [], 0
    before = calibrate.kernel_seconds()
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ncconvex", *SETUP_ARGV],
                              cwd=tmp, env=env, capture_output=True,
                              timeout=60, check=False)
        raw.append(time.perf_counter() - t0)
        after = calibrate.kernel_seconds()
        scaled.append(raw[-1] * 2 * calibrate.REFERENCE_S / (before + after))
        before = after
        try:
            entries = json.loads(proc.stdout)["result"]["entries"]
            ok = proc.returncode == 0 and entries == [[[1.0, 0.0], [0.0, 0.0]],
                                                      [[0.0, 0.0], [1.0, 0.0]]]
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
    return scaled, raw, failed


class Runner:
    """Runs passes of jobs through cli.main, checking every output."""

    def __init__(self, workload, seed, tmp, smoke, tracer=None):
        from ncconvex import cli
        self.cli = cli
        self.workload, self.seed, self.tmp, self.smoke = workload, seed, tmp, smoke
        self.tracer = tracer
        self.attempted = self.failed = self.checked = 0
        self.failures = []
        self.job_id = 0

    def jobs(self, index: int) -> list:
        jobs = workloads.build_pass(self.workload, self.seed, index, self.tmp)
        return workloads.smoke_subset(self.workload, jobs) if self.smoke else jobs

    def run_job(self, job, traced: bool):
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if traced:
                tracer.job = self.job_id
            t0 = time.perf_counter()
            try:
                code = self.cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed job, not a crashed run
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.job = -1
        self.job_id += 1
        text = out.getvalue()
        self.attempted += 1
        try:
            problem = (code if isinstance(code, str)
                       else job.check(code, text))
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        self.checked += 1
        if problem:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(job.argv)}: {problem}; "
                                     f"stderr {err.getvalue().strip()[:200]!r}")
        return elapsed, text

    def run_passes(self, first: int, seconds: float, traced=False,
                   digests=None, compare=None):
        """Passes first, first+1, ... until `seconds` have elapsed; at
        least one.

        The calibration kernel runs before a pass's first job, after its
        last, and after any job that ends CALIBRATE_EVERY_S or more after
        the kernel last ran.  Each job's time is scaled by REFERENCE_S /
        (mean of the two kernel times around it).  Returns (per-job
        (kind, scaled seconds), per-job raw seconds, kernel seconds).
        `digests` collects stdout hashes by (pass, job); `compare`
        counts [identical, compared] against such a collection."""
        samples, raw, kernels = [], [], []
        start = time.perf_counter()
        index = first
        while index == first or time.perf_counter() - start < seconds:
            jobs = self.jobs(index)
            marks = [(0, calibrate.kernel_seconds())]   # (next job, seconds)
            last_cal = time.perf_counter()
            times = []
            for k, job in enumerate(jobs):
                elapsed, text = self.run_job(job, traced)
                times.append(elapsed)
                if traced:
                    self.tracer.counts["stdout_bytes"] += len(text.encode())
                if digests is not None or compare is not None:
                    digest = hashlib.sha256(text.encode()).digest()
                    if digests is not None:
                        digests[index, k] = digest
                    ref = compare[0].get((index, k)) if compare else None
                    if ref is not None:
                        compare[1][0] += ref == digest
                        compare[1][1] += 1
                if (k == len(jobs) - 1
                        or time.perf_counter() - last_cal >= CALIBRATE_EVERY_S):
                    marks.append((k + 1, calibrate.kernel_seconds()))
                    last_cal = time.perf_counter()
            for (lo, before), (hi, after) in zip(marks, marks[1:]):
                scale = 2 * calibrate.REFERENCE_S / (before + after)
                samples += [(job.kind, t * scale)
                            for job, t in zip(jobs[lo:hi], times[lo:hi])]
            raw += times
            kernels += [seconds for _, seconds in marks]
            index += 1
        return samples, raw, kernels


def latency_summary(samples, raw, kernels) -> dict:
    ms = [1e3 * s for _, s in samples]
    p90 = percentile(ms, 90)
    by_kind = {kind: [1e3 * s for k, s in samples if k == kind] for kind in KINDS}
    return {
        "jobs": len(ms),
        "jobs_per_s": 1e3 * len(ms) / sum(ms),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": p90,
        "job_ms_p90_beyond": sum(v > p90 for v in ms),
        "kind_ms_p50": {k: statistics.median(v) for k, v in by_kind.items() if v},
        "kind_samples": {k: len(v) for k, v in by_kind.items() if v},
        "raw_jobs_per_s": len(raw) / sum(raw),
        "raw_job_ms_p50": 1e3 * statistics.median(raw),
        "host_slowdown": statistics.median(kernels) / calibrate.REFERENCE_S,
    }


def run_untraced(runner, args, tmp, ncconvex):
    setup_times, setup_raw, setup_failed = measure_setup(
        ncconvex, tmp, 1 if args.smoke else SETUP_REPEATS)
    runner.attempted += len(setup_times)
    runner.failed += setup_failed
    runner.checked += len(setup_times)
    runner.run_passes(0, 0.0)                 # warm-up pass, not measured
    summary = latency_summary(*runner.run_passes(1, args.seconds))
    summary["setup_raw_s"] = setup_raw
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (summary["jobs_per_s"], "1/s"),
        "job_ms_p50": (summary["job_ms_p50"], "ms"),
        "job_ms_p90": (summary["job_ms_p90"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    return metrics, summary


def run_traced(runner, args, tracer):
    """Untraced phase, then a traced phase over the same passes; the
    traced stdout is compared with the untraced stdout of each pass."""
    digests = {}
    runner.run_passes(0, 0.0, digests=digests)    # warm-up and reference
    half = args.seconds / 2
    plain = latency_summary(*runner.run_passes(1, half, digests=digests))
    same = [0, 0]
    tracer.install()
    try:
        traced = latency_summary(*runner.run_passes(
            0, half, traced=True, compare=(digests, same)))
    finally:
        tracer.uninstall()
    jobs = traced["jobs"]
    c = tracer.counts
    metrics = {}
    for layer, st in tracer.layer_stats().items():
        metrics[f"{layer}.calls"] = (st["calls"] / jobs, "1/job")
        metrics[f"{layer}.self_ms"] = (1e3 * st["self_s"] / jobs, "ms/job")
        metrics[f"{layer}.errors"] = (st["errors"] / jobs, "1/job")
    extractions = c["extract_exact"] + c["extract_dft"]
    metrics.update({
        "cli.stdout_kb": (c["stdout_bytes"] / 1024 / jobs, "kB/job"),
        "cli.stdout_identical": (same[0] / same[1] if same[1] else 0.0, "frac"),
        "algebra.terms_out": (c["terms_out"] / jobs, "1/job"),
        "evaluate.words_evaluated": (c["words_evaluated"] / jobs, "1/job"),
        "evaluate.size_le4": (c["size_le4"] / jobs, "1/job"),
        "evaluate.size_5to16": (c["size_5to16"] / jobs, "1/job"),
        "evaluate.size_gt16": (c["size_gt16"] / jobs, "1/job"),
        "evaluate.calls_per_trial": (c["trial_evals"] / c["trials"]
                                     if c["trials"] else 0.0, "1/trial"),
        "onevar.domain_resamples": (c["domain_resamples"] / jobs, "1/job"),
        "slices.extract_exact": (c["extract_exact"] / jobs, "1/job"),
        "slices.extract_dft": (c["extract_dft"] / jobs, "1/job"),
        "slices.extract_skips": (c["extract_skips"] / jobs, "1/job"),
        "slices.useful_frac": ((extractions - c["extract_skips"]) / extractions
                               if extractions else 0.0, "frac"),
        "trace.untraced_jobs_per_s": (plain["jobs_per_s"], "1/s"),
        "trace.overhead_x": (plain["jobs_per_s"] / traced["jobs_per_s"], "x"),
        "bench.fail_frac": (runner.failed / runner.attempted, "frac"),
    })
    for kind in KINDS:
        metrics[f"cli.{kind}_ms_p50"] = (plain["kind_ms_p50"].get(kind, 0.0), "ms")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}.npz"
    n_spans = tracer.save(span_file)
    summary = {"untraced": plain, "traced": traced,
               "stdout_compared": same[1], "spans": n_spans,
               "span_file": str(span_file.relative_to(ROOT)),
               "functions": tracer.function_stats(), "layers": tracing.LAYERS}
    return metrics, summary


def run(args) -> dict:
    """One workload run; returns the result object of the last line."""
    if not (SRC / "ncconvex" / "__init__.py").is_file():
        fail(f"no package source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import ncconvex
    if Path(ncconvex.__file__).resolve().parent != (SRC / "ncconvex").resolve():
        fail(f"imported ncconvex from {ncconvex.__file__}, not from {SRC}")

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(args.workload, args.seed, tmp, args.smoke, tracer)
        if args.trace:
            metrics, summary = run_traced(runner, args, tracer)
        else:
            metrics, summary = run_untraced(runner, args, tmp, ncconvex)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "loop": "closed, one client, in-process cli.main",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "git_commit": git_commit(),
        "attempted": runner.attempted, "failed": runner.failed,
        "checked": runner.checked, "failures": runner.failures,
        **summary,
    }
    print(json.dumps({"report": report}, default=str))
    return {
        "correct": runner.failed == 0 and runner.checked == runner.attempted,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """Run a few jobs per workload in both modes and check that every
    metric of BENCHMARK.json is reported with its unit and that the
    output checks ran."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            ns = argparse.Namespace(workload=w["name"], seed=1, seconds=0.0,
                                    trace=trace, smoke=True)
            with contextlib.redirect_stdout(io.StringIO()):
                res = run(ns)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w['name']} trace {trace}: metrics differ "
                                f"from BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
            if not res["correct"] or res["attempted"] < 2:
                problems.append(f"{w['name']} trace {trace}: {res['failed']} of "
                                f"{res['attempted']} checks failed")
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed"}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few jobs per workload, both modes; checks names")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload:
        print(json.dumps(run(args)))
        return 0
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        args.workload = name
        result = run(args)
        print(json.dumps({"workload": name, **result}))
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"workloads": list(workloads.WORKLOADS),
                      "attempted": attempted, "fail_frac": failed / attempted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
