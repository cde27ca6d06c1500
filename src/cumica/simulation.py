"""IC-model sampling, performance scoring, and Monte Carlo validation.

The Monte Carlo harness draws replicated samples from an IC model with
identity mixing (affine equivariance of the estimators makes this
without loss of generality), aligns each estimate to the identity by
the optimal signed permutation, and compares the scaled empirical
variances n*Var(w_kl) against the analytic asymptotic variances.

Seeding discipline: a run takes one master seed and spawns one
SeedSequence per replication from it before any work is dispatched;
``_replication_sample`` alone maps one to its replication's sample and
solver seed (``cumica simulate --emit-data`` writes replication 0's).
Replications run in fixed blocks of ``_BLOCK``, one pool task each that
carries the run's settings once, so results are bitwise identical
whatever the worker count.  Every block runs through one loop,
``estimators._fit_each``, which draws one sample at a time and counts a
numerical error as its replication's failure; a JADE block then rotates
all of its cumulant stacks in one batched joint diagonalization.
"""

import itertools
import math
import os
import time
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import asymptotics
from .distributions import SourceSpec, moment_profile, sample_source
from .errors import (AssumptionViolated, CumicaError, InvalidParams,
                     InvalidSpec, SingularInput, TooManyFailures,
                     _check_alpha, _check_int)
from .estimators import (SolverOptions, _all_cumulant_block, _fit_each,
                         all_cumulant, compound_cumulant, deflation_pp,
                         symmetric_pp)

_MAX_CONDITION = 1e8

# Monte Carlo replications per pool task, whatever the worker count, so
# a replication's work never depends on how many workers there are.
_BLOCK = 8

# The method registry: estimator and variance table per canonical name,
# looked up at call time; resolve_method applies the aliases.
_ESTIMATORS = {
    "deflation": deflation_pp,
    "symmetric": symmetric_pp,
    "compound": compound_cumulant,
    "all_cumulant": all_cumulant,
}

_ASV_TABLES = {
    "deflation": asymptotics.asv_deflation,
    "symmetric": asymptotics.asv_symmetric,
    "compound": asymptotics.asv_compound,
    "all_cumulant": asymptotics.asv_allcumulant,
}

_ALIASES = {"jade": "all_cumulant", "fobi": "compound"}


def resolve_method(method, alpha):
    """Map a method name and weight to ``(name, alpha)``.

    "jade" is the all-cumulant estimator; "fobi" is the compound one with
    alpha forced to 0, where ``compound_cumulant`` takes the FOBI
    standardizer.  Otherwise alpha is checked (None passes through).
    """
    raw = str(method).lower().replace("-", "_")
    name = _ALIASES.get(raw, raw)
    if name not in _ESTIMATORS:
        raise InvalidSpec(
            f"unknown method {method!r}; expected one of "
            f"{sorted(_ESTIMATORS)} or aliases {sorted(_ALIASES)}")
    if raw == "fobi":
        return name, 0.0
    return name, None if alpha is None else _check_alpha(alpha)


def _seed_sequence(seed):
    """``seed`` as a new SeedSequence: a fresh copy of one, so what is
    spawned from it leaves the caller's unspawned, or one seeded by a
    non-negative integer; anything else (a bool included) raises
    InvalidSpec."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(
        _check_int("seed", seed, 0, "a non-negative integer"))


@dataclass
class IcModelSpec:
    """An independent component model x = shift + Omega z.

    Attributes
    ----------
    sources : sequence of SourceSpec or spec strings
        Marginal distributions of the p independent sources.
    mixing : "identity", (p, p) array_like, or ("random", seed)
        The mixing matrix, a recipe for drawing one, or the identity.
    shift : (p,) array_like or None
        Location vector (default zero).
    """

    sources: tuple
    mixing: object = "identity"
    shift: object = None

    def __post_init__(self):
        parsed = tuple(SourceSpec.parse(s) if isinstance(s, str) else s
                       for s in self.sources)
        if not parsed:
            raise InvalidSpec("model needs at least one source")
        self.sources = parsed
        p = len(parsed)
        if isinstance(self.mixing, str):
            if self.mixing != "identity":
                raise InvalidSpec(f"unknown mixing: {self.mixing!r}")
            M = np.eye(p)
        elif (isinstance(self.mixing, tuple) and len(self.mixing) == 2
              and self.mixing[0] == "random"):
            rng = np.random.default_rng(_seed_sequence(self.mixing[1]))
            while True:
                M = rng.standard_normal((p, p))
                if np.linalg.cond(M) < _MAX_CONDITION:
                    break
        else:
            M = np.asarray(self.mixing, dtype=float)
            if M.shape != (p, p):
                raise InvalidSpec(f"mixing matrix must be {p}x{p}, "
                                  f"got {M.shape}")
            if not np.all(np.isfinite(M)) or np.linalg.cond(M) >= _MAX_CONDITION:
                raise InvalidSpec("mixing matrix is not numerically full rank")
            self.mixing = M
        self._omega = M
        if self.shift is not None:
            b = np.asarray(self.shift, dtype=float)
            if b.shape != (p,):
                raise InvalidSpec(f"shift must have length {p}, got {b.shape}")
            self.shift = b

    @property
    def p(self):
        return len(self.sources)

    def mixing_matrix(self):
        """A copy of the mixing matrix, which the model resolved from its
        recipe (and drew, for a random one) once, when it was made."""
        return self._omega.copy()

    def profiles(self):
        return [moment_profile(s) for s in self.sources]


def _as_model(model):
    """``model``, or the identity-mixed model of a sequence of sources."""
    if not isinstance(model, IcModelSpec):
        model = IcModelSpec(sources=tuple(model))
    return model


def generate_ic_sample(model, n, stream):
    """Draw one sample from the model.

    Returns ``(X, Omega, Z)`` with ``X = shift + Z @ Omega.T`` rowwise,
    X and Z both column-major, so each variable's observations are
    contiguous.  Source columns are drawn sequentially from ``stream``,
    so a fixed seed pins the whole sample; each is written into its
    column of Z as it is drawn, so no drawn column is held beside Z.
    """
    model = _as_model(model)
    p = model.p
    _check_int("n", n)
    if n <= p:
        raise InvalidSpec(f"need n > p, got n={n}, p={p}")
    Z = np.empty((n, p), order="F")
    for j, spec in enumerate(model.sources):
        Z[:, j] = sample_source(spec, n, stream)
    Omega = model.mixing_matrix()
    X = (Omega @ Z.T).T
    if model.shift is not None:
        X += model.shift
    return X, Omega, Z


def _max_assignment(S):
    """Maximum-weight perfect matching of the square score matrix S.

    Returns ``(rows, cols)`` with ``rows = arange(p)``: row i is matched
    to column ``cols[i]``, and ``S[rows, cols].sum()`` is maximal.  The
    cost -S is solved by shortest augmenting paths (Jonker-Volgenant,
    O(p^3)) as in Crouse, "On implementing 2D rectangular assignment
    algorithms" (IEEE TAES 52(4), 2016): rows in order, dual potentials,
    columns scanned from the last, ties broken toward a free column, so
    tied scores give the same matching as that reference code.  Scalar
    Python over lists: at the p of this package a NumPy version costs
    more in per-call overhead than it saves.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    if S.shape != (p, p):
        raise ValueError(f"assignment needs a square matrix, got {S.shape}")
    score = S.tolist()
    if not all(math.isfinite(x) for row in score for x in row):
        # a NaN or infinite score would leave no column ever reachable
        bad = [tuple(map(int, ij)) for ij in np.argwhere(~np.isfinite(S))]
        raise ValueError(f"assignment scores have {len(bad)} non-finite "
                         f"entries, first at {bad[:3]}")
    inf = math.inf
    u = [0.0] * p  # row potentials
    v = [0.0] * p  # column potentials
    col4row = [-1] * p
    row4col = [-1] * p
    path = [-1] * p
    for cur in range(p):
        # Dijkstra from row `cur` over reduced costs to the nearest free
        # column; `remaining` lists the columns not yet scanned.
        short = [inf] * p
        scanned_rows = []
        scanned_cols = []
        remaining = list(range(p - 1, -1, -1))
        min_val = 0.0
        i = cur
        sink = -1
        while sink < 0:
            scanned_rows.append(i)
            si, ui = score[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                # cost -S[i, j]: x - s rounds as x + (-s) does
                r = min_val - si[j] - ui - v[j]
                if r < short[j]:
                    path[j] = i
                    short[j] = r
                # among equal costs prefer a free column: it ends the path
                if short[j] < lowest or (short[j] == lowest
                                         and row4col[j] < 0):
                    lowest, index = short[j], it
            min_val = lowest
            j = remaining[index]
            scanned_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        u[cur] += min_val
        for i in scanned_rows[1:]:
            u[i] += min_val - short[col4row[i]]
        for j in scanned_cols:
            v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(p), np.array(col4row)


def mdi(W, Omega):
    """Minimum distance index between an unmixing estimate and the truth.

    Computes ``(p-1)^{-1/2} * min_C ||C W Omega - I||_F`` over matrices C
    with exactly one nonzero entry per row and column: the gain matrix
    ``G = W Omega`` is row-normalized, the component assignment is solved
    as a linear assignment problem on squared magnitudes, and each
    matched row's scale is then optimal in closed form.  The result lies
    in [0, 1]; 0 exactly when W Omega is a scaled signed permutation.
    """
    W = np.asarray(W, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    p = W.shape[0]
    if W.shape != (p, p) or Omega.shape != (p, p):
        raise ValueError("mdi needs two square matrices of equal size")
    G = W @ Omega
    if not np.all(np.isfinite(G)):
        raise SingularInput("gain matrix has non-finite entries")
    sv = np.linalg.svd(G, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise SingularInput("gain matrix W @ Omega is numerically singular")
    if p == 1:
        return 0.0
    # each row scaled by a power of two, which is exact, so its squares
    # neither overflow nor underflow whatever the scale of W
    G = np.ldexp(G, -np.frexp(np.abs(G).max(axis=1, keepdims=True))[1])
    H = (G * G) / (G * G).sum(axis=1, keepdims=True)
    # H[j, i]: fraction of row j's energy in column i; the best one-
    # nonzero-per-row-and-column C keeps, for each matched pair, exactly
    # that fraction.
    rows, cols = _max_assignment(H)
    matched = H[rows, cols].sum()
    return math.sqrt(max(0.0, p - matched) / (p - 1))


def align_signed_permutation(W, target=None):
    """Permute and sign the rows of W to best match ``target`` (default I).

    Returns the aligned matrix ``P J W`` where the signed permutation
    minimizes the Frobenius distance to the target.
    """
    W = np.asarray(W, dtype=float)
    p = W.shape[0]
    if target is None:
        target = np.eye(p)
    # Minimizing ||s_i W[j] - target[i]||^2 over the assignment j -> i
    # and signs reduces to maximizing sum |<W[j], target[i]>|.
    M = W @ np.asarray(target, dtype=float).T  # M[j, i]
    rows, cols = _max_assignment(np.abs(M))
    aligned = np.empty_like(W)
    for j, i in zip(rows, cols):
        s = 1.0 if M[j, i] >= 0 else -1.0
        aligned[i] = s * W[j]
    return aligned


def check_assumptions(model, method, alpha, tol=1e-12):
    """Verify the identifiability assumption the method needs at this alpha.

    Raises AssumptionViolated (carrying the assumption number) when the
    model's population moments break it, and InvalidParams when
    ``alpha`` is None for a method other than fobi; returns the checked
    assumption number otherwise.  The cumulants in use are the skewness where
    alpha > 0 and the excess kurtosis where alpha < 1.  The projection
    pursuit and all-cumulant methods need at most one source that is
    zero in all of them (assumptions 3, 4, 7 at alpha = 1, 0, interior);
    the compound method needs every pair of sources to differ in one
    (assumptions 5, 6, 8).
    """
    profs = asymptotics._as_profiles(
        model.sources if isinstance(model, IcModelSpec) else model)
    method, alpha = resolve_method(method, alpha)
    if alpha is None:
        raise InvalidParams(f"method {method!r} needs a weight alpha")
    # alpha = 1, 0 or interior: skewness, excess kurtosis or both in use
    case = {1.0: 0, 0.0: 1}.get(alpha, 2)
    cumulants = [("skewness", [pr.gamma for pr in profs]),
                 ("excess kurtosis", [pr.kappa for pr in profs])]
    if case < 2:
        cumulants = [cumulants[case]]

    if method == "compound":
        number = (5, 6, 8)[case]
        for a, b in itertools.combinations(range(len(profs)), 2):
            if all(abs(v[a] - v[b]) <= tol for _, v in cumulants):
                raise AssumptionViolated(
                    number, f"sources {a} and {b} have "
                    + " and ".join(f"equal {name}" for name, _ in cumulants))
    else:
        number = (3, 4, 7)[case]
        silent = sum(all(abs(v[i]) <= tol for _, v in cumulants)
                     for i in range(len(profs)))
        if silent > 1:
            raise AssumptionViolated(
                number, "more than one source has "
                + " and ".join(f"zero {name}" for name, _ in cumulants))
    return number


def canonical_method(method):
    """Resolve method aliases: jade -> all_cumulant, fobi -> compound."""
    return resolve_method(method, None)[0]


def _fmt(x):
    """Shortest round-trip decimal for CSV cells."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_rows(rows):
    """CSV text with one line per row of ``_fmt`` cells; the cells must
    be Python scalars, since ``_fmt`` writes a NumPy float as its repr."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def _csv_table(comments, method, alpha, n, reps, asv, n_var=None,
               rel_err=None, path_or_file=None):
    """Return the CSV table with one row per entry of the 2-d ``asv``,
    after '# ' comment lines; a missing n_var or rel_err reads nan.  The
    text also goes to ``path_or_file`` (a path or file object) if given."""
    missing = np.full(asv.shape, np.nan)
    columns = [np.asarray(m, dtype=float).ravel().tolist() for m in (
        missing if n_var is None else n_var, asv,
        missing if rel_err is None else rel_err)]
    rows = [(method, alpha, n, reps, k, l, *cells)
            for (k, l), *cells in zip(np.ndindex(asv.shape), *columns)]
    text = "".join(f"# {c}\n" for c in comments) + _csv_rows(
        ["method,alpha,n,reps,k,l,n_var,asv,rel_err".split(","), *rows])
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    elif path_or_file is not None:
        with open(path_or_file, "w") as fh:
            fh.write(text)
    return text


@dataclass
class McResult:
    """Aggregated Monte Carlo output for one configuration."""

    method: str
    alpha: float
    n: int
    replications: int
    sources: tuple
    n_var: np.ndarray
    asv: np.ndarray
    rel_err: np.ndarray
    mdi_mean: float
    mdi_median: float
    mdi_max: float
    failures: int
    wall_clock: float
    master_seed: object

    def to_csv(self, path_or_file=None):
        """Serialize as CSV (one row per matrix entry); returns the text."""
        seed = self.master_seed
        if isinstance(seed, np.random.SeedSequence):
            # its repr spans lines and counts the children spawned from it
            seed = (f"SeedSequence(entropy={seed.entropy}, "
                    f"spawn_key={seed.spawn_key})")
        comments = [
            f"monte carlo: method={self.method} alpha={_fmt(self.alpha)} "
            f"n={self.n} reps={self.replications} seed={seed}",
            "sources: " + ",".join(str(s) for s in self.sources),
            f"mdi: mean={_fmt(self.mdi_mean)} "
            f"median={_fmt(self.mdi_median)} max={_fmt(self.mdi_max)}",
            f"failures: {self.failures}",
        ]
        return _csv_table(comments, self.method, self.alpha, self.n,
                          self.replications, self.asv, self.n_var,
                          self.rel_err, path_or_file)


def resolve_threads(threads=None):
    """Worker count: explicit argument, CUMICA_THREADS, then cpu count."""
    if threads is None:
        env = os.environ.get("CUMICA_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise InvalidSpec(f"CUMICA_THREADS must be an integer, "
                                  f"got {env!r}") from None
        else:
            threads = os.cpu_count() or 1
    return _check_int("threads", threads, 1)


def _replication_sample(model, n, seq):
    """The sample and solver seed of the Monte Carlo replication whose
    SeedSequence is ``seq``: it spawns two, the first drawing the sample
    from ``model`` and the second seeding the solver."""
    data_ss, solver_ss = seq.spawn(2)
    X, _, _ = generate_ic_sample(model, n, np.random.default_rng(data_ss))
    return X, int(solver_ss.generate_state(1)[0])


def _outcome(est, Omega):
    """A replication's (status, error name, aligned W, mdi) from its fit,
    or from the numerical error that stopped it."""
    if isinstance(est, Exception):
        return ("error", type(est).__name__, None, None)
    if not est.converged:
        return ("unconverged", None, None, None)
    aligned = align_signed_permutation(est.W @ Omega)
    score = mdi(est.W, Omega)
    return ("ok", None, aligned, score)


def _run_block(run, seqs):
    """The outcomes of one block of Monte Carlo replications, from the
    run's settings ``run`` and the block's SeedSequences ``seqs``; must
    stay a top-level function so the process pool can pickle it.  Every
    method's samples go through ``_fit_each``, JADE's inside its batch."""
    model, method, alpha, n, opts = run
    draws = [partial(_replication_sample, model, n, seq) for seq in seqs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if method == "all_cumulant":
            fits = _all_cumulant_block(draws, alpha, opts)
        else:
            fits = _fit_each(lambda X, seed: _ESTIMATORS[method](
                X, alpha, opts=replace(opts, seed=seed)), draws)
    Omega = model.mixing_matrix()
    return [_outcome(est, Omega) for est in fits]


def monte_carlo_experiment(model, method, alpha, n, replications,
                           master_seed=0, opts=None, threads=None):
    """Estimate n*Var of every unmixing entry over replicated samples.

    Parameters
    ----------
    model : IcModelSpec or sequence of source specs
        Only the sources matter: replications always use identity mixing
        (the estimators are affine equivariant, so this is without loss
        of generality).
    method : str
        "deflation", "symmetric", "compound", "all_cumulant" (aliases
        "jade", "fobi" accepted; "fobi" forces alpha = 0).
    master_seed : int or numpy.random.SeedSequence
        Source of all randomness; per-replication seeds are spawned from
        it deterministically.
    threads : int or None
        Worker processes; None consults CUMICA_THREADS then cpu count.

    Raises
    ------
    AssumptionViolated
        When the model's population moments break the assumption the
        method needs at this alpha.
    TooManyFailures
        When more than 1% of replications fail or do not converge.
    """
    t0 = time.perf_counter()
    model = _as_model(model)
    method, alpha = resolve_method(method, alpha)
    replications = _check_int("replications", replications, 2)
    check_assumptions(model, method, alpha)
    table = _ASV_TABLES[method](model.sources, alpha)
    asv = table.offdiag + np.diag(table.diag)

    opts = opts or SolverOptions()
    replica = IcModelSpec(sources=model.sources)  # identity mixing, no shift
    run = (replica, method, alpha, n, opts)
    seqs = _seed_sequence(master_seed).spawn(replications)
    blocks = [seqs[i:i + _BLOCK] for i in range(0, replications, _BLOCK)]
    threads = min(resolve_threads(threads), replications)
    if threads > 1:
        # the pool's modules load only for a run that uses them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(partial(_run_block, run), blocks))
    else:
        done = [_run_block(run, block) for block in blocks]
    outcomes = [outcome for block in done for outcome in block]

    mats = [aligned for status, _, aligned, _ in outcomes if status == "ok"]
    scores = np.array([s for status, _, _, s in outcomes if status == "ok"])
    failures = replications - len(mats)
    if failures > 0.01 * replications:
        kinds = sorted({name for status, name, _, _ in outcomes
                        if status == "error" and name})
        raise TooManyFailures(
            f"{failures}/{replications} replications failed or did not "
            f"converge" + (f" (errors: {', '.join(kinds)})" if kinds else ""))

    n_var = n * np.stack(mats).var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(asv != 0.0, (n_var - asv) / asv, np.nan)
    return McResult(
        method=method, alpha=alpha, n=int(n), replications=replications,
        sources=tuple(str(s) for s in model.sources),
        n_var=n_var, asv=asv, rel_err=rel,
        mdi_mean=float(scores.mean()), mdi_median=float(np.median(scores)),
        mdi_max=float(scores.max()), failures=int(failures),
        wall_clock=time.perf_counter() - t0, master_seed=master_seed)


@dataclass
class ContourGrid:
    """Grid of pair criteria ASV(w_12) + ASV(w_21) over two source families."""

    method: str
    alpha: float
    family_x: str
    family_y: str
    x_values: np.ndarray
    y_values: np.ndarray
    values: np.ndarray  # values[i, j] for (x_values[i], y_values[j]); NaN missing

    def to_csv(self, path_or_file=None):
        """Serialize as CSV (one row per grid cell); returns the text."""
        comments = [
            f"contour: method={self.method} alpha={_fmt(self.alpha)} "
            f"family_x={self.family_x} family_y={self.family_y}",
            "x: " + ",".join(_fmt(float(v)) for v in self.x_values),
            "y: " + ",".join(_fmt(float(v)) for v in self.y_values),
            "columns k,l index x and y; asv holds the pair criterion",
        ]
        return _csv_table(comments, self.method, self.alpha, 0, 0,
                          self.values, path_or_file=path_or_file)


def contour_grid(family_x, range_x, family_y, range_y, method, alpha,
                 steps=40):
    """Pair criterion over a parameter grid of two one-parameter families.

    The families must be one-parameter ones ("gamma" or "ep"), and the
    range bounds finite.  Cells whose profiles do not exist or whose ASV
    denominators vanish are recorded as NaN rather than failing the
    whole grid.
    """
    method, alpha = resolve_method(method, alpha)
    table_fn = _ASV_TABLES[method]
    for family in (family_x, family_y):
        if str(family).lower() not in ("gamma", "ep"):
            raise InvalidSpec(f"contour families are gamma and ep, "
                              f"got {family!r}")
    lo_x, hi_x = map(float, range_x)
    lo_y, hi_y = map(float, range_y)
    for name, bounds in (("range_x", (lo_x, hi_x)),
                         ("range_y", (lo_y, hi_y))):
        if not all(map(math.isfinite, bounds)):
            raise InvalidParams(f"{name} must be finite, got {bounds!r}")
    steps = _check_int("steps", steps, 2)
    xs = np.linspace(lo_x, hi_x, steps)
    ys = np.linspace(lo_y, hi_y, steps)
    vals = np.full((steps, steps), np.nan)

    def profile(family, value):
        try:
            return moment_profile(f"{family}:{float(value)!r}")
        except CumicaError:
            return None  # no profile: its whole row or column is missing

    pls = [profile(family_y, yv) for yv in ys]
    for i, xv in enumerate(xs):
        pk = profile(family_x, xv)
        for j, pl in enumerate(pls):
            if pk is None or pl is None:
                continue
            try:
                table = table_fn([pk, pl], alpha)
                vals[i, j] = asymptotics.offdiag_criterion(table, 0, 1)
            except CumicaError:
                continue  # a vanishing denominator: the cell is missing
    return ContourGrid(method=method, alpha=alpha,
                       family_x=family_x, family_y=family_y,
                       x_values=xs, y_values=ys, values=vals)


def read_config(path):
    """Parse a plain-text ``key = value`` experiment config file.

    Blank lines and '#' comments are ignored; values stay strings for
    the caller to coerce.  A line without '=' or a repeated key raises
    InvalidSpec naming the line.
    """
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidSpec(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise InvalidSpec(f"{path}:{lineno}: repeated key {key!r}")
            out[key] = value
    return out
