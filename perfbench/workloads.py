"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, then offers one
pass of jobs: a job is one closed-loop call into cumica (a fit, a Monte
Carlo block, or a CLI command), and the next job starts when the previous
one returns.  Every job's output is checked; a job that fails a check
counts as failed.  The library receives only the generated inputs.  Why
each workload exists is recorded in README.md and BENCHMARK.json.
"""

import hashlib
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np

import cumica.cli
import cumica.estimators
import cumica.simulation
from cumica import IcModelSpec, SolverOptions, generate_ic_sample, mdi

ALPHA = 0.8
SOURCES_P10 = tuple(f"gamma:{k}" for k in
                    ("1", "2", "4", "8", "0.5", "1.5", "3", "6", "12", "16"))
SOURCES_P3 = ("gamma:1", "gamma:2", "gamma:4")

ESTIMATORS = {"deflation": "deflation_pp", "symmetric": "symmetric_pp",
              "compound": "compound_cumulant", "all_cumulant": "all_cumulant"}

# Largest minimum distance index a correct fit may reach.  At p = 10 the
# compound-matrix fits (compound, and fobi in the CLI) land near 0.25-0.55
# on these sources: gamma:12 and gamma:16 have close cumulants, and the
# estimator warns NearDegenerateSpectrum.  The other fits land near
# 0.02-0.1.  An unmixing matrix unrelated to the truth scores 0.84 or
# more at p = 10.
MDI_BOUND = {"deflation": 0.25, "symmetric": 0.25, "compound": 0.7,
             "all_cumulant": 0.25, "fobi": 0.7}
# Monte Carlo gates the median over a block: at p = 3 the median lands
# near 0.03, while single replications reach 0.24 in the far tail.
MC_MDI_MEDIAN_BOUND = 0.1

CHILD_TIMEOUT_S = 120


def _int_seed(ss):
    return int(ss.generate_state(1)[0])


def _finite_converged(W, converged):
    problems = []
    if not np.all(np.isfinite(W)):
        problems.append("non-finite W")
    if not converged:
        problems.append("not converged")
    return problems


def _quiet(fn, *args, **kwargs):
    """Call fn, returning (result, names of the warning classes raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, sorted({w.category.__name__ for w in caught})


@dataclass
class Job:
    """Outcome of one job: wall time, operations attempted, the problems
    its checks found (empty when it passed), and figures for the report
    (``rate``, when present, is reported in place of the wall time)."""

    name: str
    wall_s: float
    ops: int
    problems: list
    info: dict


class FitP10:
    """Four estimators, serially, on one p = 10, n = 1e4 dataset per pass."""

    name = "fit-p10"
    n = 10_000

    def __init__(self, seed):
        self.seed = seed
        self.X, _, _ = self.inputs(0)

    def inputs(self, index):
        """Dataset, true mixing and per-method solver options of pass
        ``index``.  Each pass draws fresh data and each fit its own solver
        seed, so a run averages over the seed-driven iteration counts, and
        the compound fit's symmetric pilot is not a repeat of the
        symmetric fit."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(index,))
        mix_ss, data_ss, *solver_ss = ss.spawn(2 + len(ESTIMATORS))
        model = IcModelSpec(SOURCES_P10, mixing=("random", _int_seed(mix_ss)))
        X, omega, _ = generate_ic_sample(model, self.n,
                                         np.random.default_rng(data_ss))
        opts = {m: SolverOptions(seed=_int_seed(s))
                for m, s in zip(ESTIMATORS, solver_ss)}
        return X, omega, opts

    def job_metric(self, job_name):
        return "fit_s." + job_name, "s"

    def warmup(self):
        small = self.X[:500]
        for fn in ESTIMATORS.values():
            _quiet(getattr(cumica.estimators, fn), small, ALPHA,
                   opts=SolverOptions(restarts=1, max_iter=5))

    def jobs(self, traced, index):
        X, omega, opts = self.inputs(index)
        return [(m, self._fit_job(m, X, omega, opts[m])) for m in ESTIMATORS]

    def _fit_job(self, method, X, omega, opts):
        def job():
            fn = getattr(cumica.estimators, ESTIMATORS[method])
            t0 = time.perf_counter()
            est, warned = _quiet(fn, X, ALPHA, opts=opts)
            wall = time.perf_counter() - t0
            info = {"warnings": warned}
            problems = _finite_converged(est.W, est.converged)
            if not problems:
                info["mdi"] = score = mdi(est.W, omega)
                if not score <= MDI_BOUND[method]:
                    problems.append(f"mdi {score:.4f} > {MDI_BOUND[method]}")
            return Job(method, wall, 1, problems, info)
        return job

    def final_checks(self):
        return []


class McP3:
    """Monte Carlo blocks for symmetric PP and JADE at p = 3, n = 1e4."""

    name = "mc-p3"
    n = 10_000
    reps = {"symmetric": 48, "jade": 256}
    method_name = {"symmetric": "symmetric", "jade": "all_cumulant"}
    threads = 2

    def __init__(self, seed):
        self.seed = seed
        self.model = IcModelSpec(SOURCES_P3)
        self.opts = SolverOptions(restarts=1)

    def master_seed(self, index):
        """Monte Carlo master seed of pass ``index``: each pass draws fresh
        replications, so a run averages over seed-driven work."""
        return _int_seed(np.random.SeedSequence(self.seed, spawn_key=(index,)))

    def _run(self, method, reps, threads, master_seed):
        return _quiet(cumica.simulation.monte_carlo_experiment, self.model,
                      method, ALPHA, n=self.n, replications=reps,
                      master_seed=master_seed, opts=self.opts,
                      threads=threads)

    def job_metric(self, job_name):
        return "mc_reps_per_s." + self.method_name[job_name], "1/s"

    def warmup(self):
        for method in self.reps:
            self._run(method, 2, self.threads, self.master_seed(0))

    def jobs(self, traced, index):
        # Spans recorded in worker processes are not collected, so a
        # traced pass runs the replications in this process.
        threads = 1 if traced else self.threads
        seed = self.master_seed(index)
        return [(m, self._mc_job(m, threads, seed)) for m in self.reps]

    def _mc_job(self, method, threads, master_seed):
        def job():
            t0 = time.perf_counter()
            res, warned = self._run(method, self.reps[method], threads,
                                    master_seed)
            wall = time.perf_counter() - t0
            problems = []
            if res.failures:
                problems.append(f"{res.failures} replications failed")
            if not np.all(np.isfinite(res.n_var)):
                problems.append("non-finite n_var")
            if not res.mdi_median <= MC_MDI_MEDIAN_BOUND:
                problems.append(f"median mdi {res.mdi_median:.4f} > "
                                f"{MC_MDI_MEDIAN_BOUND}")
            return Job(method, wall, res.replications, problems,
                       {"mdi": res.mdi_max, "warnings": warned,
                        "rate": res.replications / wall})
        return job

    def final_checks(self):
        """Bitwise-identical n_var for one and two worker processes."""
        seed = self.master_seed(0)
        one, _ = self._run("symmetric", 8, 1, seed)
        two, _ = self._run("symmetric", 8, 2, seed)
        same = one.n_var.tobytes() == two.n_var.tobytes()
        return [("mc_threads_bitwise", same,
                 "" if same else "n_var differs between threads=1 and 2")]


def _read_estimate(path):
    """(W, converged) from the text `cumica estimate` writes."""
    converged = None
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# converged="):
                converged = line.split()[1] == "converged=True"
            elif not line.startswith("#") and line.strip():
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows), converged


def _read_omega(path, p):
    with open(path) as fh:
        for line in fh:
            if line.startswith("# omega:"):
                values = [float(v) for v in line.split(":", 1)[1].split(",")]
                return np.array(values).reshape(p, p)
            if not line.startswith("#"):
                break
    raise ValueError("no '# omega:' line in the simulated CSV")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_child(argv, env, stderr_path, timeout=CHILD_TIMEOUT_S):
    """Run a child process to completion; returns (exit code, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class CliN1e5:
    """simulate --emit-data, then two estimates of the CSV, via the CLI."""

    name = "cli-n1e5"
    n = 100_000

    def __init__(self, seed, workdir, env):
        sim_ss, solver_ss = np.random.SeedSequence(seed).spawn(2)
        self.env = env
        self.dir = workdir
        self.csv = os.path.join(workdir, "data.csv")
        sim_seed, solver_seed = _int_seed(sim_ss), _int_seed(solver_ss)
        self.solver_seed = solver_seed
        self.argv = {
            "simulate": ["simulate", "--sources", ",".join(SOURCES_P10),
                         "--n", str(self.n), "--seed", str(sim_seed),
                         "--mixing", "random", "--emit-data",
                         "--out", self.csv],
            # the parser requires --alpha even for fobi, which forces 0
            "estimate_jade": ["estimate", "--in", self.csv, "--method", "jade",
                              "--alpha", str(ALPHA), "--seed",
                              str(solver_seed), "--out", self._out("jade")],
            "estimate_fobi": ["estimate", "--in", self.csv, "--method", "fobi",
                              "--alpha", "0", "--seed", str(solver_seed),
                              "--out", self._out("fobi")],
        }
        self.outputs = {}   # job name -> set of output digests

    def _out(self, method):
        return os.path.join(self.dir, f"estimate_{method}.txt")

    def job_metric(self, job_name):
        return "cli_s." + job_name, "s"

    def warmup(self):
        pass

    def jobs(self, traced, index):
        return [(name, self._cli_job(name, traced)) for name in self.argv]

    def _cli_job(self, name, traced):
        def job():
            argv = self.argv[name]
            out = self._output(name)
            if os.path.exists(out):
                os.remove(out)  # a command that writes nothing must fail
            t0 = time.perf_counter()
            if traced:
                # in process, so spans under cumica.cli.run are recorded
                code, _ = _quiet(cumica.cli.run, argv)
                info = {}
            else:
                code, rss = run_child(
                    [sys.executable, "-m", "cumica.cli", *argv], self.env,
                    os.path.join(self.dir, f"{name}.stderr"))
                info = {"peak_rss_mb": rss}
            wall = time.perf_counter() - t0
            problems = [] if code == 0 else [f"exit code {code}"]
            if not problems:
                problems += self._check_output(name, info)
            return Job(name, wall, 1, problems, info)
        return job

    def _output(self, name):
        return self.argv[name][-1]

    def _check_output(self, name, info):
        path = self._output(name)
        self.outputs.setdefault(name, set()).add(_sha256(path))
        if name == "simulate":
            return []
        W, converged = _read_estimate(path)
        problems = _finite_converged(W, converged)
        if not problems:
            omega = _read_omega(self.csv, len(SOURCES_P10))
            info["mdi"] = score = mdi(W, omega)
            bound = MDI_BOUND["fobi" if name.endswith("fobi") else
                              "all_cumulant"]
            if not score <= bound:
                problems.append(f"mdi {score:.4f} > {bound}")
        return problems

    def final_checks(self):
        """Each CLI output repeats exactly across passes, and each estimate
        equals the in-process fit of the same CSV."""
        checks = [(f"{name}_repeats", len(digests) == 1,
                   f"{len(digests)} distinct outputs")
                  for name, digests in sorted(self.outputs.items())]
        X = np.loadtxt(self.csv, delimiter=",", comments="#", ndmin=2)
        os.remove(self.csv)  # about 20 MB per seed; nothing reads it again
        opts = SolverOptions(tol=1e-9, restarts=10, seed=self.solver_seed)
        reference = {
            "estimate_jade": _quiet(cumica.estimators.all_cumulant, X,
                                    ALPHA, opts=opts)[0],
            "estimate_fobi": _quiet(cumica.estimators.compound_cumulant, X,
                                    0.0, standardizer="fobi", opts=opts)[0],
        }
        for name, est in reference.items():
            W, _ = _read_estimate(self._output(name))
            same = W.shape == est.W.shape and np.array_equal(W, est.W)
            checks.append((f"{name}_matches_library", same,
                           "" if same else "CLI W differs from the library"))
        return checks
