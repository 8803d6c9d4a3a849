"""Experiment harness: synthetic data, queries, grid runs, CSV emission.

Grid runs are deterministic: every cell derives its own seed from the
master seed and the cell index, rows appear in grid-enumeration order,
and floats are formatted with a fixed precision, so the emitted CSV is
byte-identical across runs.  It holds no timings.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .distributions import LinearCombo
from .mechanisms import (
    CompoundLaplace,
    Laplace,
    NoiseMechanism,
    Staircase,
    perturb,
    sample_noise,
)
from .optimize import SearchSpaceSpec, baseline_laplace, baseline_staircase, optimize
from .privacy import PrivacySpec
from .utility import LINEAR_METRICS, UtilityGoal, noise_metric


class EmptyDatasetError(ValueError):
    pass


class ConfigError(ValueError):
    pass


MECHANISM_NAMES = ("compound", "laplace", "staircase")


@dataclass(frozen=True)
class QuerySpec:
    """A statistic with a declared sensitivity bound."""

    kind: str = "count"
    window: int = 1
    scale: float = 1.0
    declared_sensitivity: float = 1.0

    def __post_init__(self):
        if self.kind not in ("count", "moving_average"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if not 0 < self.declared_sensitivity < math.inf:
            raise ValueError("declared_sensitivity must be finite and > 0")
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")
        if self.kind == "count" and self.declared_sensitivity != 1.0:
            raise ValueError("count queries have sensitivity exactly 1")
        if self.kind == "moving_average":
            if self.window < 1 or self.scale <= 0:
                raise ValueError("moving_average needs window >= 1 and scale > 0")
            if self.declared_sensitivity < self.scale / self.window - 1e-12:
                raise ValueError(
                    "declared sensitivity below the true bound scale/window"
                )

    def true_value(self, dataset: np.ndarray) -> float:
        """The statistic on ``dataset``.  A moving average over n < window
        records averages those n, so one record moves it by up to scale/n:
        a declared sensitivity below that raises ``ValueError``."""
        data = np.asarray(dataset, float)
        if data.size == 0:
            raise EmptyDatasetError("dataset is empty")
        if self.kind == "count":
            return float(data.size)
        window = data[-self.window:]
        # on a full window this is the constructor's check
        if self.declared_sensitivity < self.scale / window.size - 1e-12:
            raise ValueError(
                f"declared sensitivity {self.declared_sensitivity!r} is below the true bound "
                f"scale/n = {self.scale / window.size!r} on a dataset of n = {window.size} "
                f"records, fewer than the window of {self.window}"
            )
        return float(self.scale * (window.sum() / window.size))


def run_query(
    dataset, query: QuerySpec, mech: NoiseMechanism, rng: np.random.Generator
) -> float:
    """Answer the query on the dataset and release it through the mechanism."""
    return perturb(mech, query.true_value(dataset), rng)


@dataclass(frozen=True)
class ExperimentGrid:
    epsilons: tuple[float, ...]
    sensitivities: tuple[float, ...]
    metric: str = "usefulness"
    metric_params: tuple[float, ...] = (0.1, 0.4, 0.6, 0.9)
    mechanisms: tuple[str, ...] = MECHANISM_NAMES
    trials: int = 2000
    master_seed: int = 0

    def __post_init__(self):
        if not self.epsilons or not self.sensitivities or not self.mechanisms:
            raise ValueError("grid axes must be non-empty")
        if self.metric not in LINEAR_METRICS:
            raise ValueError("grid metrics are usefulness, l1 or l2")
        if self.metric == "usefulness":
            if not self.metric_params:
                raise ValueError("usefulness grids need at least one gamma")
            for gamma in self.metric_params:
                _goal_for(self.metric, gamma)  # refuses a gamma that is not finite and > 0
        unknown = [m for m in self.mechanisms if m not in MECHANISM_NAMES]
        if unknown:
            raise ValueError(f"unknown mechanisms {unknown}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def cells(self):
        params = self.metric_params if self.metric == "usefulness" else (float("nan"),)
        index = 0
        for eps in self.epsilons:
            for dq in self.sensitivities:
                for mp in params:
                    for mech in self.mechanisms:
                        yield index, eps, dq, mp, mech
                        index += 1


@dataclass
class GridRow:
    epsilon_target: float
    epsilon_achieved: float | None
    sensitivity: float
    metric: str
    metric_param: float
    mechanism: str
    utility_analytic: float | None
    utility_empirical: float | None
    utility_stderr: float | None
    trials: int
    seed: int
    error: str = ""
    combo: LinearCombo | None = field(default=None, compare=False)
    draws: int = field(default=0, compare=False)


# the CSV holds the compared fields, in order
CSV_COLUMNS = tuple(f.name for f in fields(GridRow) if f.compare)


def _goal_for(metric: str, mp: float) -> UtilityGoal:
    if metric == "usefulness":
        return UtilityGoal("usefulness", gamma=mp)
    return UtilityGoal(metric)


def run_grid(grid: ExperimentGrid, search: SearchSpaceSpec | None = None) -> list[GridRow]:
    """One row per (epsilon, sensitivity, metric-param, mechanism) cell.

    Per-cell failures are recorded in the row's error column and the run
    continues.  Exactly ``grid.trials`` noise draws are consumed per cell
    (tracked in the row's ``draws`` field).
    """
    search = search or SearchSpaceSpec()
    rows: list[GridRow] = []
    per_cell = len(grid.mechanisms)
    for index, eps, dq, mp, mech_name in grid.cells():
        if index % per_cell == 0:
            # a new (epsilon, sensitivity, param) cell: its goal and privacy
            # spec are built once, where its first row needs them, so that a
            # row that fails still fails at the same step with the same error
            goal = privacy = None
        # the two children SeedSequence([master, index]).spawn(2) would
        # return, built without the parent
        entropy = [grid.master_seed & (2**63 - 1), index]
        opt_seed_seq = np.random.SeedSequence(entropy, spawn_key=(0,))
        noise_seed_seq = np.random.SeedSequence(entropy, spawn_key=(1,))
        cell_seed = int(opt_seed_seq.generate_state(1)[0])
        row = GridRow(
            epsilon_target=eps,
            epsilon_achieved=None,
            sensitivity=dq,
            metric=grid.metric,
            metric_param=mp,
            mechanism=mech_name,
            utility_analytic=None,
            utility_empirical=None,
            utility_stderr=None,
            trials=grid.trials,
            seed=cell_seed,
        )
        try:
            goal = goal or _goal_for(grid.metric, mp)
            if mech_name == "laplace":
                mech = Laplace(dq / eps)
                row.epsilon_achieved = eps
                privacy = privacy or PrivacySpec(eps, dq)
                row.utility_analytic = baseline_laplace(privacy, goal)
            elif mech_name == "staircase":
                mech = Staircase(eps, dq)
                row.epsilon_achieved = eps
                privacy = privacy or PrivacySpec(eps, dq)
                row.utility_analytic = baseline_staircase(privacy, goal)
            else:
                privacy = privacy or PrivacySpec(eps, dq)
                calibrated = optimize(search, privacy, goal, seed=cell_seed)
                mech = CompoundLaplace(calibrated.combo)
                row.combo = calibrated.combo
                row.epsilon_achieved = calibrated.achieved_epsilon
                row.utility_analytic = calibrated.predicted_utility
            # default_rng(noise_seed_seq)'s stream, without its dispatch
            noise_rng = np.random.Generator(np.random.PCG64(noise_seed_seq))
            noise = np.asarray(sample_noise(mech, noise_rng, grid.trials))
            row.draws = int(noise.size)
            row.utility_empirical, row.utility_stderr = noise_metric(goal, noise)
        except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".12g")
    return str(value)


def rows_to_csv(rows: list[GridRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(rows: list[GridRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))


def read_csv_rows(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- synthetic data -------------------------------------------------------


def generate_synthetic(
    kind: str,
    n: int,
    seed: int,
    rate: float = 5.0,
    value: float = 1.0,
    shape: str = "uniform",
) -> np.ndarray:
    """Reproducible synthetic datasets.

    constant     n copies of ``value``
    poisson      n Poisson(rate) counts
    histogram50  50 bin masses (summing to 1) from n draws of the shape
                 distribution ("uniform", "triangular" or "lognormal")
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(n, float(value))
    if kind == "poisson":
        return rng.poisson(rate, n).astype(float)
    if kind == "histogram50":
        if shape == "uniform":
            draws = rng.random(n)
        elif shape == "triangular":
            draws = rng.triangular(0.0, 0.3, 1.0, n)
        elif shape == "lognormal":
            draws = rng.lognormal(0.0, 0.5, n)
            draws = draws / (draws.max() + 1e-12)
        else:
            raise ValueError(f"unknown histogram shape {shape!r}")
        counts, _ = np.histogram(draws, bins=50, range=(0.0, 1.0))
        return counts / counts.sum()
    raise ValueError(f"unknown synthetic kind {kind!r}")


def read_dataset(path) -> np.ndarray:
    """One numeric column, optional single header line."""
    values = []
    with open(path) as fh:
        for i, raw in enumerate(fh):
            line = raw.strip().split(",")[0]
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                if i == 0:
                    continue  # header
                raise
    if not values:
        raise EmptyDatasetError(f"no numeric data in {path}")
    return np.asarray(values)


# --- config files ---------------------------------------------------------


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def load_config(path) -> tuple[ExperimentGrid, SearchSpaceSpec, QuerySpec | None]:
    """INI-style config: [grid] axes and seeds, [search] optimizer budget,
    optional [query] section.  Keys are documented in the README."""
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "grid" not in parser:
        raise ConfigError("config needs a [grid] section")
    g = parser["grid"]
    try:
        grid = ExperimentGrid(
            epsilons=_floats(g.get("epsilons", "")),
            sensitivities=_floats(g.get("sensitivities", "1")),
            metric=g.get("metric", "usefulness"),
            metric_params=_floats(g.get("metric_params", "0.1 0.4 0.6 0.9")),
            mechanisms=tuple(g.get("mechanisms", "compound laplace staircase").split()),
            trials=g.getint("trials", 2000),
            master_seed=g.getint("seed", 0),
        )
        s = parser["search"] if "search" in parser else {}
        search = SearchSpaceSpec(**{f.name: int(s[f.name])
                                    for f in fields(SearchSpaceSpec) if f.name in s})
        query = None
        if "query" in parser:
            q = parser["query"]
            query = QuerySpec(
                kind=q.get("kind", "count"),
                window=q.getint("window", 1),
                scale=q.getfloat("scale", 1.0),
                declared_sensitivity=q.getfloat("declared_sensitivity", 1.0),
            )
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    return grid, search, query
