"""The benchmark's workloads: inputs built from a seed, and the operations
that run on them with their output checks.

A workload is a fixed cyclic list of units.  The measuring loop runs
units in order until the run time is spent, and always finishes the
first `core` units, which carry the quality metrics.  Each unit is one
closed-loop step of a single client: calibrate a cell (or take a fixed
mechanism), audit its law, release a stream of scalar answers through
`bench.run_query`, and draw one batch through `sample_noise`.

An operation fails if it raises, if its grid row has an error, if any
draw it releases is zero or non-finite, if its achieved epsilon is more
than 1e-9 from the target, if the grid epsilon of its law exceeds the
closed form by more than 1e-6, or if a grid cell's CSV differs from an
earlier run of the same cell with the same seed.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dpcalib import bench, distributions, mechanisms, privacy, utility

EPS_TOL = 1e-9  # |achieved - target| epsilon
GRID_TOL = 1e-6  # grid epsilon above the closed form
AUDIT_MIN_S = 0.01
ZERO_NOISE = "zero or non-finite noise"

HERE = Path(__file__).resolve().parent


def derive(*words: int) -> int:
    """A 63-bit seed derived from the workload seed and unit coordinates."""
    return int(np.random.SeedSequence([w & (2**63 - 1) for w in words]).generate_state(
        2, np.uint64)[0] >> np.uint64(1))


@dataclass
class Recorder:
    """Everything a run measures, plus operation outcomes.

    Timing series hold plain seconds; `marks` note where each unit ends
    and the unit's group, which is the cell or the mechanism.  Floats keep
    the series out of the garbage collector's traversals, whose pauses
    would otherwise grow with the run and land in the release timings.
    `audit_min_s` is how long a short audit is repeated for; 0 runs every
    audit once, so that the calls a traced run counts do not depend on
    the machine's speed.
    """

    audit_min_s: float = AUDIT_MIN_S
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    unexpected: int = 0
    cells: int = 0
    cell_s: list = field(default_factory=list)
    release_s: list = field(default_factory=list)
    draws: int = 0
    draw_s: float = 0.0
    audit_s: list = field(default_factory=list)
    vs_laplace: list = field(default_factory=list)
    vs_staircase: list = field(default_factory=list)
    csv_sha: dict = field(default_factory=dict)
    marks: list = field(default_factory=list)

    def mark(self, group: str, factor: float) -> None:
        """Close the unit just run; `factor` scales its times to reference speed."""
        self.marks.append((self.cells, len(self.cell_s), len(self.release_s),
                           len(self.audit_s), self.draws, self.draw_s, factor, group))

    def timings(self, cycle: int, scaled: bool = True):
        """Timing series over whole cycles of the workload's `cycle` units,
        so every run times the same units; over every unit if no cycle
        finished.
        With `scaled`, each unit's times are multiplied by its factor."""
        units = len(self.marks)
        if units >= cycle:
            units -= units % cycle
        cell, release, audit, unit_releases = [], [], [], []
        draw_s = 0.0
        prev = (0, 0, 0, 0, 0, 0.0, 1.0, "")
        for mark in self.marks[:units]:
            f = mark[6] if scaled else 1.0
            g = mark[7]
            cell += [(g, t * f) for t in self.cell_s[prev[1]:mark[1]]]
            this_unit = [t * f for t in self.release_s[prev[2]:mark[2]]]
            release += [(g, t) for t in this_unit]
            if this_unit:
                unit_releases.append((g, this_unit))
            audit += [(g, t * f) for t in self.audit_s[prev[3]:mark[3]]]
            draw_s += (mark[5] - prev[5]) * f
            prev = mark
        return prev[0], cell, release, unit_releases, audit, prev[4], draw_s

    def op(self, reason: str | None, known: bool = False) -> None:
        """Count one operation; `reason` names the failure, None if it passed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures[reason] += 1
            if not known:
                self.unexpected += 1


def _closed_form(combo, dq):
    """Per-family closed-form epsilon of a one-term law, or None."""
    active = combo.active_terms()
    if len(active) != 1:
        return None
    coeff, dist = active[0]
    try:
        # eps of a*X at sensitivity dq is eps of X at a*dq
        return privacy.epsilon_closed_form(dist, coeff * dq)
    except privacy.UnsupportedFamilyError:
        return None


def timed_audit(audit, rec: Recorder):
    """Run `audit` and record its time per call.  An audit shorter than
    `rec.audit_min_s` is repeated until that much time has passed, so that
    a 1 ms audit is not timed by a single reading of the clock."""
    start = time.perf_counter()
    result = audit()
    calls = 1
    while (elapsed := time.perf_counter() - start) < rec.audit_min_s:
        audit()
        calls += 1
    rec.audit_s.append(elapsed / calls)
    return result


def audit_combo(combo, dq, target, rec: Recorder) -> None:
    """Three routes to epsilon: general MGF, closed form, density grid."""

    def audit():
        return (privacy.epsilon_of_combo(combo, dq), _closed_form(combo, dq),
                privacy.verify_epsilon_empirically(combo, dq))

    try:
        general, closed, grid = timed_audit(audit, rec)
    except Exception as exc:  # noqa: BLE001 - a raising audit is a failed operation
        rec.op(f"audit raised {type(exc).__name__}")
        return
    reference = general if closed is None else closed
    if abs(general - target) > EPS_TOL:
        rec.op("audited epsilon off target")
    elif grid > reference + GRID_TOL:
        rec.op("grid epsilon above closed form")
    else:
        rec.op(None)


def release(dataset, query, mech, count, rng, rec: Recorder, known=frozenset()) -> None:
    """`count` scalar releases through `bench.run_query`, each checked."""
    truth = query.true_value(dataset)
    binary = isinstance(mech, mechanisms.RandomizedResponse)
    clock = time.perf_counter
    for _ in range(count):
        start = clock()
        try:
            out = bench.run_query(dataset, query, mech, rng)
        except Exception as exc:  # noqa: BLE001
            rec.release_s.append(clock() - start)
            rec.op(f"release raised {type(exc).__name__}")
            continue
        rec.release_s.append(clock() - start)
        if binary:
            rec.op(None if out in (0.0, 1.0) else "randomized response left {0, 1}")
        elif math.isfinite(out) and out != truth:
            rec.op(None)
        else:
            rec.op(ZERO_NOISE, ZERO_NOISE in known)


def draw_batch(mech, size, rng, rec: Recorder, timed: bool, known=frozenset()) -> None:
    """One batch through `sample_noise`; timed batches feed draws_per_s."""
    start = time.perf_counter()
    try:
        noise = np.asarray(mechanisms.sample_noise(mech, rng, size), float)
    except Exception as exc:  # noqa: BLE001
        rec.op(f"sample_noise raised {type(exc).__name__}")
        return
    if timed:
        rec.draw_s += time.perf_counter() - start
        rec.draws += noise.size
    bad = noise.size - np.count_nonzero(np.isfinite(noise) & (noise != 0.0))
    rec.op(ZERO_NOISE if bad else None, ZERO_NOISE in known)


def serve_calibrated(combo, eps, dq, dataset, query, rng, rec: Recorder,
                     releases: int, batch: int) -> None:
    """Audit a calibrated law, release through it, draw one batch."""
    audit_combo(combo, dq, eps, rec)
    mech = mechanisms.CompoundLaplace(combo)
    release(dataset, query, mech, releases, rng, rec)
    draw_batch(mech, batch, rng, rec, timed=True)


def _log_factor(tuned, base, higher_is_better):
    return math.log(tuned / base) if higher_is_better else math.log(base / tuned)


# --- grid-linear --------------------------------------------------------

USEFULNESS_EPSILONS = (0.5, 1, 2, 3, 5, 8)
LINEAR_EPSILONS = (0.25, 0.5, 1, 2, 4, 6, 8)
GRID_TEMPLATE = """[grid]
epsilons = {epsilons}
sensitivities = 0.5 1
metric = {metric}
metric_params = 0.1 0.4 0.6 0.9
mechanisms = compound laplace staircase
trials = 2000
seed = {seed}

[search]
restarts = 6
max_evals = 150
"""


def _interleave(groups):
    """Merge lists so each keeps its share of every prefix (largest remainder)."""
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    out = []
    for step in range(1, total + 1):
        lag = [len(g) * step / total - taken[i] for i, g in enumerate(groups)]
        i = max(range(len(groups)), key=lambda j: (lag[j], -j))
        out.append(groups[i][taken[i]])
        taken[i] += 1
    return out


def _strided(cells, stride):
    """Visit cells with a stride coprime to their count, varying every axis."""
    n = len(cells)
    if math.gcd(stride, n) != 1:
        raise ValueError("stride must be coprime to the cell count")
    return [cells[(i * stride) % n] for i in range(n)]


class GridLinear:
    """`load_config` then `run_grid`, one compound/laplace/staircase cell at
    a time, over the usefulness, l1 and l2 grids at the criterion-10 budget."""

    name = "grid-linear"
    core = 24
    releases = 1000
    batch = 200_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        groups = []
        for metric, epsilons in (("usefulness", USEFULNESS_EPSILONS),
                                 ("l1", LINEAR_EPSILONS), ("l2", LINEAR_EPSILONS)):
            path = workdir / f"{metric}.ini"
            path.write_text(GRID_TEMPLATE.format(
                epsilons=" ".join(str(e) for e in epsilons), metric=metric,
                seed=derive(seed, len(groups))))
            grid, search, _ = bench.load_config(path)
            self.search = search
            params = grid.metric_params if metric == "usefulness" else (float("nan"),)
            cells = [(grid, eps, dq, mp) for eps in grid.epsilons
                     for dq in grid.sensitivities for mp in params]
            groups.append(_strided(cells, 7 if metric == "usefulness" else 3))
        self.units = _interleave(groups)
        self.dataset = bench.generate_synthetic("poisson", 1000, seed=derive(seed, 10))
        self.query = bench.QuerySpec("count")

    def subgrid(self, unit, warm=False):
        grid, eps, dq, mp = unit
        return dataclasses.replace(
            grid, epsilons=(eps,), sensitivities=(dq,),
            metric_params=(mp,) if grid.metric == "usefulness" else grid.metric_params,
            master_seed=derive(grid.master_seed, int(eps * 100), int(dq * 100),
                               0 if math.isnan(mp) else int(mp * 100)),
            trials=200 if warm else grid.trials)

    def group(self, index: int) -> str:
        return f"cell {index}"

    def warm_up(self):
        small = dataclasses.replace(self.search, restarts=1, max_evals=10)
        bench.run_grid(self.subgrid(self.units[0], warm=True), small)

    def run(self, index: int, occurrence: int, rec: Recorder, core: bool) -> None:
        unit = self.units[index]
        grid, eps, dq, mp = unit
        start = time.perf_counter()
        try:
            rows = bench.run_grid(self.subgrid(unit), self.search)
        except Exception as exc:  # noqa: BLE001
            rec.op(f"run_grid raised {type(exc).__name__}")
            return
        rec.cell_s.append(time.perf_counter() - start)
        rec.cells += 1
        sha = hashlib.sha256(bench.rows_to_csv(rows).encode()).hexdigest()
        by_mech = {row.mechanism: row for row in rows}
        compound = by_mech["compound"]
        if any(row.error for row in rows):
            rec.op("grid row error")
        elif abs(compound.epsilon_achieved - eps) > EPS_TOL:
            rec.op("achieved epsilon off target")
        elif rec.csv_sha.setdefault(index, sha) != sha:
            rec.op("CSV differs between runs of the same cell")
        else:
            rec.op(None)
        if compound.combo is None:
            return
        if core:
            higher = grid.metric == "usefulness"
            tuned = compound.utility_analytic
            rec.vs_laplace.append(_log_factor(tuned, by_mech["laplace"].utility_analytic,
                                              higher))
            rec.vs_staircase.append(_log_factor(tuned, by_mech["staircase"].utility_analytic,
                                                higher))
        rng = np.random.default_rng([self.seed, index, occurrence])
        serve_calibrated(compound.combo, eps, dq, self.dataset, self.query, rng, rec,
                         self.releases, self.batch)


# --- release-audit ------------------------------------------------------

RELEASE_GAMMA = 0.4  # usefulness radius for the quality factors (a criterion-5 gamma)


@dataclass(frozen=True)
class FixedMechanism:
    name: str
    kind: str
    mech: object
    epsilon: float
    params: dict
    known: frozenset


def load_mechanisms(path: Path) -> list[FixedMechanism]:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(path)
    out = []
    for name in parser.sections():
        sec = parser[name]
        kind = sec["kind"]
        eps = float(sec["epsilon"])
        if kind == "laplace":
            mech = mechanisms.Laplace(float(sec["b"]))
        elif kind == "staircase":
            mech = mechanisms.Staircase(eps, 1.0)
        elif kind == "gaussian":
            mech = mechanisms.Gaussian(float(sec["sigma"]))
        elif kind == "randomized_response":
            mech = mechanisms.RandomizedResponse(float(sec["p"]))
        elif kind == "compound":
            mech = mechanisms.CompoundLaplace(distributions.parse_combo(sec["combo"]))
        else:
            raise ValueError(f"unknown mechanism kind {kind!r} in [{name}]")
        known = frozenset([ZERO_NOISE]) if "known_defect" in sec else frozenset()
        out.append(FixedMechanism(name, kind, mech, eps, dict(sec), known))
    return out


class ReleaseAudit:
    """Audit, release and draw through a fixed, committed mechanism set."""

    name = "release-audit"
    releases = 2000
    batch = 200_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.units = load_mechanisms(HERE / "mechanisms.ini")
        self.core = len(self.units)
        self.dataset = bench.generate_synthetic("poisson", 1000, seed=derive(seed, 10))
        self.count = bench.QuerySpec("count")
        # randomized response answers a bit: the last record exceeds the rate
        self.bits = (self.dataset > 5.0).astype(float)
        self.bit = bench.QuerySpec("moving_average", window=1, scale=1.0)

    def group(self, index: int) -> str:
        return self.units[index].name

    def warm_up(self):
        rng = np.random.default_rng(self.seed)
        for unit in self.units:
            dataset, query = self._inputs(unit)
            bench.run_query(dataset, query, unit.mech, rng)

    def _inputs(self, unit):
        if unit.kind == "randomized_response":
            return self.bits, self.bit
        return self.dataset, self.count

    def _audit(self, unit, rec: Recorder) -> None:
        if unit.kind == "compound":
            audit_combo(unit.mech.combo, 1.0, unit.epsilon, rec)
        elif unit.kind == "laplace":
            audit_combo(distributions.singleton(distributions.Degenerate(1.0 / unit.mech.b)),
                        1.0, unit.epsilon, rec)
        elif unit.kind == "staircase":
            grid = timed_audit(lambda: privacy.density_grid_epsilon(
                lambda xs: mechanisms.staircase_log_density(unit.mech, xs), 1.0, 10.0, 1e-3),
                rec)
            rec.op("grid epsilon above closed form" if grid > unit.epsilon + GRID_TOL
                   else None)
        elif unit.kind == "gaussian":
            want = mechanisms.gaussian_sigma(unit.epsilon, float(unit.params["delta"]), 1.0)
            rec.op(None if abs(want - unit.mech.sigma) <= 1e-12 * want
                   else "gaussian sigma off calibration")
        else:
            p = unit.mech.p
            rec.op(None if abs(math.log(p / (1.0 - p)) - unit.epsilon) <= EPS_TOL
                   else "audited epsilon off target")

    def run(self, index: int, occurrence: int, rec: Recorder, core: bool) -> None:
        unit = self.units[index]
        rng = np.random.default_rng([self.seed, index, occurrence])
        dataset, query = self._inputs(unit)
        start = time.perf_counter()
        self._audit(unit, rec)
        release(dataset, query, unit.mech, self.releases, rng, rec, unit.known)
        if unit.kind != "randomized_response":
            draw_batch(unit.mech, self.batch, rng, rec, timed=unit.kind == "compound",
                       known=unit.known)
        rec.cell_s.append(time.perf_counter() - start)
        rec.cells += 1
        if core and unit.kind == "compound":
            tuned = utility.usefulness_bound(unit.mech.combo, RELEASE_GAMMA)
            lap = mechanisms.laplace_usefulness(unit.epsilon, 1.0, RELEASE_GAMMA)
            stair = mechanisms.staircase_usefulness(unit.epsilon, 1.0, RELEASE_GAMMA)
            rec.vs_laplace.append(_log_factor(tuned, lap, True))
            rec.vs_staircase.append(_log_factor(tuned, stair, True))


WORKLOADS = {w.name: w for w in (GridLinear, ReleaseAudit)}
