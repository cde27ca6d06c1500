"""cumica benchmark: one command runs a workload, checks it, prints metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-p10 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

With ``--trace 0`` the run repeats passes of the workload's jobs for at
least ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it alternates two untraced and two traced passes, reports
the per-layer metrics from the first traced pass, checks that every
per-layer count repeats exactly in the second, and reports the tracing
overhead as traced minus untraced wall time.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
A failed check makes the exit code 1.  Everything the run writes goes to
``.perfbench_out/`` under the repository root.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread per process: the Monte Carlo pool already puts one
# worker on each core, and a fixed setting keeps figures comparable.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

RUN_SECONDS = 25
SETUP_REPEATS = 5

WORKLOADS = {
    "fit-p10": "pure-Python Jacobi sym_eig under polar_orthogonal dominates "
               "the symmetric and compound fits; all_cumulant times "
               "joint_diagonalize",
    "mc-p3": "many small fits: the moment kernel, cum3_stack, standardize "
             "and sampling dominate; the only workload using the process pool",
    "cli-n1e5": "CSV write and parse, interpreter start-up, large-n "
                "cum4_stack, cum3_stack and compound_matrices via the CLI",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_METHODS = ("deflation_pp", "symmetric_pp", "compound_cumulant",
            "all_cumulant")
PER_LAYER = (
    [("linalg.sym_eig.calls", "count"), ("linalg.sym_eig.self_s", "s"),
     ("linalg.polar_orthogonal.calls", "count"),
     ("linalg.polar_orthogonal.self_s", "s"),
     ("linalg.inv_sqrt_sym.self_s", "s"),
     ("linalg.joint_diagonalize.calls", "count"),
     ("linalg.joint_diagonalize.self_s", "s"),
     ("linalg.joint_diagonalize.sweeps", "count")]
    + [(f"estimators.{m}.{k}", u) for m in _METHODS
       for k, u in (("self_s", "s"), ("iterations", "count"),
                    ("restarts_used", "count"))]
    + [(f"cumulants.{f}.self_s", "s") for f in
       ("standardize", "cum3_stack", "cum4_stack", "compound_matrices",
        "fobi_matrix")]
    + [("cumulants.standardize.calls", "count"),
       ("cumulants.cum4_stack.peak_mb", "MB"),
       ("distributions.sample_source.self_s", "s"),
       ("simulation.generate_ic_sample.self_s", "s"),
       ("simulation.mdi.self_s", "s"),
       ("simulation.align_signed_permutation.self_s", "s"),
       ("simulation.monte_carlo_experiment.self_s", "s"),
       ("asymptotics.asv_table.self_s", "s"),
       ("cli.import_s", "s"), ("cli.run.self_s", "s"),
       ("trace.overhead_s", "s")])
# restarts that ran to completion: more is better; all other per-layer
# figures are work or time.
_HIGHER = {"restarts_used"}


def spec():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit,
                       "better": ("higher" if name.rsplit(".", 1)[1] in _HIGHER
                                  else "lower")}
                      for name, unit in PER_LAYER],
    }


def summarize(values):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for q in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            rank = min(n - 1, int(q / 100.0 * n))
            out[f"p{q:g}"] = values[rank]
            break
    return out


def _fmt_summary(name, unit, s):
    extra = [f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p")]
    if not extra:
        extra = ["no percentile has 10 samples beyond it"]
    return f"{name:32s} median={s['median']:.6g} {unit}  n={s['n']}  " + \
        " ".join(extra)


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def make_workload(name, seed):
    import workloads
    if name == "fit-p10":
        return workloads.FitP10(seed)
    if name == "mc-p3":
        return workloads.McP3(seed)
    workdir = OUT / f"cli-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.CliN1e5(seed, str(workdir), child_env())


def metadata(workload, seed, seconds, trace):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            commit = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "cumica").glob("*.py")))
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "src_cumica_lines": src_lines, "git_commit": commit,
    }


def _cpu_s():
    """User plus system CPU seconds of this process and reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(jobs, record=None):
    """Run one pass of jobs closed loop; returns (Job list, wall, cpu).

    A job that raises is recorded as failed and the pass goes on.
    """
    from workloads import Job
    done = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for trace_id, (name, fn) in enumerate(jobs):
        start = time.perf_counter()
        try:
            if record is None:
                done.append(fn())
            else:
                done.append(record(trace_id, "bench." + name, fn))
        except Exception as exc:  # noqa: BLE001 - counted as a failed job
            done.append(Job(name, time.perf_counter() - start, 1,
                            [_describe(exc)], {}))
    return done, time.perf_counter() - t0, _cpu_s() - cpu0


def _describe(exc):
    """Exception type, message and the innermost frame, on one line."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"({Path(frame.filename).name}:{frame.lineno})")


def guarded(ledger, name, fn):
    """Run a warm-up or check step; an exception counts as a failed check."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - counted as a failed check
        ledger.add_check(name, False, _describe(exc))
        return None


def final_checks(wl, ledger):
    for check in guarded(ledger, "final_checks", wl.final_checks) or ():
        ledger.add_check(*check)


def measure_setup(workload, seed):
    """Median wall time of a fresh interpreter setting the workload up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_import():
    """Median wall time of a bare `import cumica.cli` subprocess."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cumica.cli"],
                       env=child_env(), check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_jobs(self, jobs):
        for job in jobs:
            self.attempted += job.ops
            if job.problems:
                self.failed += job.ops
                self.problems.append(f"{job.name}: {'; '.join(job.problems)}")

    def add_check(self, name, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {message}")


def job_report(wl, passes, ledger):
    """Report lines: the per-job metrics named after each workload's job."""
    lines = []
    by_job = {}
    for jobs in passes:
        for job in jobs:
            by_job.setdefault(job.name, []).append(job)
    for name, jobs in by_job.items():
        metric, unit = wl.job_metric(name)
        values = [j.info.get("rate", j.wall_s) for j in jobs if not j.problems]
        if values:  # failed jobs count in fail_frac, not in the timings
            lines.append(_fmt_summary(metric, unit, summarize(values)))
        rss = [j.info["peak_rss_mb"] for j in jobs if "peak_rss_mb" in j.info]
        if rss:
            lines.append(_fmt_summary("peak_rss_mb." + name, "MB",
                                      summarize(rss)))
        scores = [j.info["mdi"] for j in jobs if "mdi" in j.info]
        if scores:
            lines.append(f"{'mdi_max.' + name:32s} {max(scores):.6g}")
    scores = [j.info["mdi"] for jobs in passes for j in jobs
              if "mdi" in j.info]
    if scores:
        lines.append(f"{'mdi_max':32s} {max(scores):.6g}")
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    lines.append(f"{'fail_frac':32s} {frac:.6g} "
                 f"({ledger.failed}/{ledger.attempted})")
    warned = sorted({w for jobs in passes for j in jobs
                     for w in j.info.get("warnings", ())})
    if warned:
        lines.append(f"{'warnings':32s} {', '.join(warned)}")
    return lines


def timed_run(wl, args):
    ledger = Ledger()
    setup_s = measure_setup(args.workload, args.seed)
    guarded(ledger, "warmup", wl.warmup)
    passes, walls, cpus = [], [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        jobs, wall, cpu = run_pass(wl.jobs(False, len(passes)))
        ledger.add_jobs(jobs)
        passes.append(jobs)
        walls.append(wall)
        cpus.append(cpu)
    # ru_maxrss is in KiB; the children are the CLI commands, the Monte
    # Carlo workers and the set-up interpreters.
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    final_checks(wl, ledger)
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(walls),
        "pass_cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    report = [_fmt_summary("pass_s", "s", summarize(walls)),
              _fmt_summary("pass_cpu_s", "s", summarize(cpus)),
              f"{'passes (s)':32s} " + " ".join(f"{w:.4g}" for w in walls)]
    report += job_report(wl, passes, ledger)
    units = {m["name"]: m["unit"] for m in END_TO_END}
    return ledger, {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}, report


def traced_run(wl, args):
    from tracing import Tracer, self_times
    ledger = Ledger()
    guarded(ledger, "warmup", wl.warmup)
    # Untraced and traced passes alternate, so drift in machine speed
    # falls on both sides of the tracing-overhead difference.
    untraced, runs = [], []
    for _ in range(2):
        jobs, _, _ = run_pass(wl.jobs(True, 0))
        ledger.add_jobs(jobs)
        untraced.append(jobs)
        jobs = wl.jobs(True, 0)  # inputs are built before tracing starts
        with Tracer() as tracer:
            jobs, _, _ = run_pass(jobs, tracer.job)
        ledger.add_jobs(jobs)
        runs.append((tracer, jobs))
    (tracer, jobs), (tracer_b, _) = runs

    calls, self_s, root_s = self_times(tracer.spans)
    calls_b, _, _ = self_times(tracer_b.spans)
    same = calls == calls_b and tracer.counts == tracer_b.counts
    ledger.add_check("counts_repeat", same,
                     "per-layer counts differ between two traced passes")
    covered = abs(sum(self_s.values()) - root_s) <= 1e-6 * max(1.0, root_s)
    ledger.add_check("self_time_accounts_for_roots", covered,
                     f"self times sum to {sum(self_s.values())} s, "
                     f"root spans to {root_s} s")
    final_checks(wl, ledger)

    values = {}
    for name, unit in PER_LAYER:
        layer, field = name.rsplit(".", 1)
        if field == "calls":
            values[name] = calls.get(layer, 0)
        elif field == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif field == "peak_mb":
            values[name] = tracer.peaks.get(layer, 0) / 2**20
        elif layer.startswith(("linalg.", "estimators.")):
            values[name] = tracer.counts.get((layer, field), 0)
    traced_wall = [sum(j.wall_s for j in jobs) for _, jobs in runs]
    untraced_wall = [sum(j.wall_s for j in jobs) for jobs in untraced]
    values["trace.overhead_s"] = (sum(traced_wall) - sum(untraced_wall)) / 2
    values["cli.import_s"] = (measure_import() if wl.name == "cli-n1e5"
                              else 0.0)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["id", "parent", "trace", "name", "start", "end"],
         "spans": tracer.spans}))
    report = [f"{'traced pass wall':32s} {traced_wall} s",
              f"{'untraced pass wall':32s} {untraced_wall} s",
              f"{'spans':32s} {len(tracer.spans)} -> {spans_path.name}"]
    report += [f"{name:44s} {values[name]:.6g} {unit}"
               for name, unit in PER_LAYER]
    report += job_report(wl, untraced + [j for _, j in runs], ledger)
    return ledger, {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER}, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2)
                                             + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "cumica" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cumica sources under {SRC}; run from a "
                         f"checkout of the repository\n")
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))

    wl = make_workload(args.workload, args.seed)
    if args.setup_only:
        return 0
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    ledger, metrics, report = (traced_run if args.trace else timed_run)(
        wl, args)

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "meta": meta, "report": report,
                              "problems": ledger.problems}, indent=1))
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# meta " + json.dumps(meta))
    for line in report:
        print(line)
    for problem in ledger.problems:
        print("FAILED " + problem)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
