import math
import re
from pathlib import Path

import numpy as np
import pytest

from dpcalib import cli
from dpcalib.bench import (
    CSV_COLUMNS,
    ConfigError,
    EmptyDatasetError,
    ExperimentGrid,
    QuerySpec,
    generate_synthetic,
    load_config,
    read_csv_rows,
    read_dataset,
    rows_to_csv,
    run_grid,
    run_query,
    write_csv,
)
from dpcalib.distributions import FAMILIES
from dpcalib.mechanisms import Laplace
from dpcalib.optimize import SearchSpaceSpec

TINY_SEARCH = SearchSpaceSpec(restarts=3, max_evals=60)


def test_query_spec_validation():
    QuerySpec()
    QuerySpec("moving_average", window=30, scale=1.0, declared_sensitivity=1.0 / 30)
    with pytest.raises(ValueError):
        QuerySpec("count", declared_sensitivity=2.0)
    with pytest.raises(ValueError):
        QuerySpec("moving_average", window=10, scale=1.0, declared_sensitivity=0.01)
    with pytest.raises(ValueError):
        QuerySpec("median")


def test_query_true_values():
    data = np.ones(100)
    assert QuerySpec("count").true_value(data) == 100.0
    q = QuerySpec("moving_average", window=30, scale=1.0, declared_sensitivity=1.0 / 30)
    assert q.true_value(data) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for window, scale in [(1, 1.0), (7, 1.7), (30, 0.3), (200, 2.0)]:
        q = QuerySpec("moving_average", window=window, scale=scale, declared_sensitivity=2.0)
        for _ in range(50):
            data = rng.poisson(5.0, 150).astype(float) * rng.random()
            assert q.true_value(data) == float(scale * np.mean(data[-window:]))
    with pytest.raises(EmptyDatasetError):
        QuerySpec("count").true_value(np.array([]))


def test_run_query_is_true_value_plus_noise():
    data = np.ones(100)
    released = run_query(data, QuerySpec("count"), Laplace(1.0), np.random.default_rng(3))
    noise = np.random.default_rng(3).laplace(0.0, 1.0)
    assert released == pytest.approx(100.0 + noise)


def test_moving_average_on_fewer_records_than_its_window_checks_the_sensitivity():
    # on n < window records one record moves the average by up to scale/n:
    # here 0.5 on [0, 1] against 0 on [0, 0], 15x the declared 1/30
    q = QuerySpec("moving_average", window=30, scale=1.0, declared_sensitivity=1.0 / 30)
    for data in (np.array([0.0, 1.0]), np.ones(29)):
        with pytest.raises(ValueError, match="below the true bound"):
            q.true_value(data)
        with pytest.raises(ValueError, match="below the true bound"):
            run_query(data, q, Laplace(1.0), np.random.default_rng(0))
    assert q.true_value(np.ones(30)) == 1.0
    # a declared bound that covers scale/n is kept, within the constructor's slack
    assert QuerySpec("moving_average", window=30, scale=1.0,
                     declared_sensitivity=0.5 - 1e-13).true_value(np.array([0.0, 1.0])) == 0.5
    with pytest.raises(ValueError, match="below the true bound"):
        QuerySpec("moving_average", window=30, scale=1.0,
                  declared_sensitivity=0.5 - 1e-11).true_value(np.array([0.0, 1.0]))


def test_cli_bench_refuses_a_dataset_shorter_than_the_window(tmp_path, capsys):
    config = tmp_path / "grid.ini"
    config.write_text("[grid]\nepsilons = 1\nsensitivities = 1\nmetric_params = 0.4\n"
                      "mechanisms = laplace\ntrials = 20\nseed = 4\n"
                      "[query]\nkind = moving_average\nwindow = 30\nscale = 1.0\n"
                      f"declared_sensitivity = {1.0 / 30!r}\n")
    dataset = tmp_path / "data.csv"
    dataset.write_text("0\n1\n")
    assert cli.main(["bench", "--config", str(config), "--dataset", str(dataset)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: declared sensitivity") and "Traceback" not in err
    dataset.write_text("1\n" * 30)
    assert cli.main(["bench", "--config", str(config), "--dataset", str(dataset)]) == 0


def test_generate_synthetic():
    const = generate_synthetic("constant", 10, seed=0, value=2.5)
    assert np.all(const == 2.5) and const.size == 10
    pois = generate_synthetic("poisson", 100_000, seed=1, rate=5.0)
    assert abs(pois.mean() - 5.0) < 0.1
    hist = generate_synthetic("histogram50", 10_000, seed=2)
    assert hist.size == 50 and hist.sum() == pytest.approx(1.0)
    assert np.array_equal(
        generate_synthetic("poisson", 50, seed=9), generate_synthetic("poisson", 50, seed=9)
    )
    with pytest.raises(ValueError):
        generate_synthetic("nope", 10, 0)


def test_read_dataset_with_and_without_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("value\n1.5\n2.5\n")
    assert np.allclose(read_dataset(p), [1.5, 2.5])
    p.write_text("1.0\n2.0\n3.0\n")
    assert np.allclose(read_dataset(p), [1.0, 2.0, 3.0])
    p.write_text("")
    with pytest.raises(EmptyDatasetError):
        read_dataset(p)


def test_grid_validation():
    with pytest.raises(ValueError):
        ExperimentGrid(epsilons=(), sensitivities=(1.0,))
    with pytest.raises(ValueError):
        ExperimentGrid(epsilons=(1.0,), sensitivities=(1.0,), mechanisms=("nope",))
    with pytest.raises(ValueError):
        ExperimentGrid(epsilons=(1.0,), sensitivities=(1.0,), trials=0)


def test_run_grid_single_laplace_cell():
    grid = ExperimentGrid(
        epsilons=(2.0,), sensitivities=(1.0,), metric_params=(0.5,),
        mechanisms=("laplace",), trials=5000, master_seed=1,
    )
    rows = run_grid(grid, TINY_SEARCH)
    assert len(rows) == 1
    row = rows[0]
    assert row.error == ""
    assert row.utility_analytic == pytest.approx(1.0 - math.exp(-1.0))
    assert row.epsilon_achieved == 2.0
    assert abs(row.utility_empirical - row.utility_analytic) < 4 * row.utility_stderr
    assert row.draws == grid.trials


def test_run_grid_deterministic():
    grid = ExperimentGrid(
        epsilons=(1.0, 2.0), sensitivities=(1.0,), metric_params=(0.4,),
        mechanisms=("compound", "laplace", "staircase"), trials=500, master_seed=3,
    )
    a = rows_to_csv(run_grid(grid, TINY_SEARCH))
    b = rows_to_csv(run_grid(grid, TINY_SEARCH))
    assert a == b


def test_run_grid_compound_dominates_laplace_rowwise():
    grid = ExperimentGrid(
        epsilons=(5.0,), sensitivities=(1.0,), metric_params=(0.1, 0.6),
        mechanisms=("compound", "laplace"), trials=200, master_seed=5,
    )
    rows = run_grid(grid, SearchSpaceSpec(restarts=6, max_evals=120))
    by_param = {}
    for r in rows:
        by_param.setdefault(r.metric_param, {})[r.mechanism] = r
    for param, cells in by_param.items():
        assert cells["compound"].utility_analytic >= cells["laplace"].utility_analytic - 1e-6
        assert abs(cells["compound"].epsilon_achieved - 5.0) <= 1e-3


def test_run_grid_isolates_cell_failures(monkeypatch):
    import dpcalib.bench as bench_mod

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(bench_mod, "optimize", boom)
    grid = ExperimentGrid(
        epsilons=(1.0,), sensitivities=(1.0,), metric_params=(0.4,),
        mechanisms=("compound", "laplace"), trials=100, master_seed=0,
    )
    rows = run_grid(grid, TINY_SEARCH)
    assert "forced failure" in rows[0].error
    assert rows[1].error == "" and rows[1].utility_analytic is not None


def test_csv_columns_fixed_order(tmp_path):
    grid = ExperimentGrid(
        epsilons=(1.0,), sensitivities=(1.0,), metric_params=(0.4,),
        mechanisms=("laplace",), trials=100, master_seed=0,
    )
    rows = run_grid(grid, TINY_SEARCH)
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    parsed = read_csv_rows(path)
    assert tuple(parsed[0].keys()) == CSV_COLUMNS == (
        "epsilon_target", "epsilon_achieved", "sensitivity", "metric", "metric_param",
        "mechanism", "utility_analytic", "utility_empirical", "utility_stderr", "trials",
        "seed", "error")


def test_load_config(tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text(
        "[grid]\n"
        "epsilons = 0.5 1\n"
        "sensitivities = 1\n"
        "metric = usefulness\n"
        "metric_params = 0.1 0.9\n"
        "mechanisms = laplace staircase\n"
        "trials = 100\n"
        "seed = 9\n"
        "\n"
        "[search]\n"
        "restarts = 4\n"
        "max_evals = 50\n"
        "\n"
        "[query]\n"
        "kind = count\n"
    )
    grid, search, query = load_config(cfg)
    assert grid.epsilons == (0.5, 1.0)
    assert grid.master_seed == 9
    assert search.restarts == 4
    assert query.kind == "count"
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[search]\nrestarts = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_cli_synth_and_sample(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert cli.main(["synth", "--kind", "constant", "--n", "3", "--value", "7",
                     "--out", str(out)]) == 0
    assert np.allclose(read_dataset(out), [7.0, 7.0, 7.0])
    assert cli.main(["sample", "--mech", "laplace b=1", "--count", "2", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["sample", "--mech", "laplace b=1", "--count", "2", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first
    assert cli.main(["sample", "--combo", "1 gamma shape=2 scale=1", "--count", "2"]) == 0


@pytest.mark.parametrize("argv", [
    ["sample", "--mech", "laplace b=1", "--count", "5", "--seed", "3"],
    ["synth", "--kind", "poisson", "--n", "6", "--seed", "2"],
    ["bench", "--config", "{cfg}"],
], ids=["sample-mech", "synth", "bench"])
def test_cli_writes_the_same_bytes_to_out_as_to_stdout(argv, tmp_path, capsys):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[grid]\nepsilons = 1\nsensitivities = 1\nmetric_params = 0.4\n"
                   "mechanisms = laplace\ntrials = 50\nseed = 4\n")
    argv = [arg.format(cfg=cfg) for arg in argv]
    out = tmp_path / "out.txt"
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("flags", [
    [],
    ["--mech", "laplace b=1", "--combo", "1 degenerate value=1"],
    ["--mech", ""],
    ["--mech", "laplace"],
    ["--mech", "staircase"],
    ["--combo", "1 gamma shape=2"],
])
def test_cli_sample_refuses_bad_flags(flags, capsys):
    # exactly one of --mech and --combo, naming a complete law
    assert cli.main(["sample", *flags]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--combo", "1 gamma shape=2 scale=1", "--count", "0"], "error: count must be >= 1"),
    (["--combo", "1 gamma shape=2 scale=1", "--count", "-1"], "error: count must be >= 1"),
    # a law whose family cannot resolve it reads mean nan, and releases nothing
    (["--combo", "1 trunc_gaussian mu=-143668.88420564317 sigma=32918.30615103151 "
                 "lo=1.352114344842097e-07 hi=1.508136386835856e-07"],
     "error: the reciprocal-scale combination must have positive mean"),
], ids=["count-0", "count-negative", "mean-nan"])
def test_cli_sample_refuses_and_writes_nothing(flags, message, tmp_path, capsys):
    out = tmp_path / "noise.txt"
    assert cli.main(["sample", *flags]) == 1
    assert cli.main(["sample", *flags, "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.splitlines() == [message, message]
    assert not out.exists()


def test_cli_verify(capsys):
    assert cli.main(["verify", "--combo", "1 gamma shape=1 scale=1",
                     "--sensitivity", "1"]) == 0
    out = capsys.readouterr().out
    closed = float(out.splitlines()[0].split("=")[1])
    grid = float(out.splitlines()[1].split("=")[1])
    assert closed == pytest.approx(2 * math.log(2), rel=1e-9)
    assert grid <= closed + 1e-6
    assert cli.main(["verify", "--combo", "1 gamma shape=1 scale=1", "--step", "0"]) == 1
    assert "step must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("sensitivity", ["0", "inf", "nan", "-1"])
def test_cli_verify_refuses_a_bad_sensitivity(sensitivity, capsys):
    assert cli.main(["verify", "--combo", "1 gamma shape=2 scale=1",
                     "--sensitivity", sensitivity]) == 1
    assert "error: sensitivity must be finite and > 0" in capsys.readouterr().err


def test_cli_verify_fails_closed(monkeypatch, capsys):
    combo = "1 gamma shape=1 scale=1"
    closed = 2 * math.log(2)
    monkeypatch.setattr(cli, "verify_epsilon_empirically", lambda *a: closed + 1e-5)
    assert cli.main(["verify", "--combo", combo]) == 4
    assert "exceeds the closed form" in capsys.readouterr().err
    monkeypatch.setattr(cli, "verify_epsilon_empirically", lambda *a: closed + 1e-7)
    assert cli.main(["verify", "--combo", combo]) == 0


def test_cli_optimize_writes_record(tmp_path):
    out = tmp_path / "mech.txt"
    rc = cli.main([
        "optimize", "--epsilon", "2", "--sensitivity", "1", "--metric", "usefulness",
        "--gamma", "0.5", "--restarts", "3", "--max-evals", "50",
        "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    from dpcalib.optimize import CalibratedMechanism

    record = CalibratedMechanism.from_text(out.read_text())
    assert abs(record.achieved_epsilon - 2.0) <= 1e-3


def test_cli_optimize_large_epsilon(tmp_path):
    # exits 0 with an exact-epsilon law at eps = 300, and 2 (infeasible)
    # where e^eps overflows
    out = tmp_path / "mech.txt"
    assert cli.main(["optimize", "--epsilon", "300", "--metric", "l2", "--out", str(out)]) == 0
    from dpcalib.optimize import CalibratedMechanism

    assert abs(CalibratedMechanism.from_text(out.read_text()).achieved_epsilon - 300.0) <= 1e-9
    assert cli.main(["optimize", "--epsilon", "720", "--metric", "l2"]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("metric, sensitivity", [("l2", "1e104"), ("l1", "1e156"),
                                                 ("l2", "1e-300"), ("l2", "1e-200")])
def test_cli_optimize_refuses_a_sensitivity_beyond_the_float_range(metric, sensitivity, capsys):
    # exit 2 with an infeasible: line, not an OverflowError or a warning
    assert cli.main(["optimize", "--epsilon", "5", "--sensitivity", sensitivity,
                     "--metric", metric]) == 2
    assert "infeasible:" in capsys.readouterr().err


def test_cli_optimize_prior_metric_record_round_trips(tmp_path, capsys):
    from dpcalib.optimize import CalibratedMechanism

    prior = tmp_path / "prior.csv"
    prior.write_text("".join(f"{x!r}\n" for x in np.linspace(0, 5, 8).tolist()))
    out = tmp_path / "mech.txt"
    rc = cli.main([
        "optimize", "--metric", "mallows", "--p", "2", "--prior", str(prior),
        "--epsilon", "8", "--restarts", "3", "--max-evals", "40", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert capsys.readouterr().out == text
    record = CalibratedMechanism.from_text(text)
    assert record.to_text() == text
    assert abs(record.achieved_epsilon - 8.0) <= 1e-9
    assert record.predicted_utility < record.baseline_laplace_utility


def test_cli_optimize_mallows_p1_needs_no_prior(capsys):
    # mallows at p = 1 is E|noise|, solved exactly as l1 with no prior
    assert cli.main(["optimize", "--epsilon", "8", "--metric", "mallows", "--p", "1"]) == 0
    mallows = capsys.readouterr().out
    assert cli.main(["optimize", "--epsilon", "8", "--metric", "l1"]) == 0
    assert mallows == capsys.readouterr().out


def test_cli_bench_roundtrip_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "bench.ini"
    cfg.write_text(
        "[grid]\nepsilons = 1\nsensitivities = 1\nmetric_params = 0.4\n"
        "mechanisms = laplace staircase\ntrials = 200\nseed = 4\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert cli.main(["bench", "--config", str(tmp_path / "no.ini")]) == 1


def test_cli_usage_error_exit_code():
    assert cli.main(["optimize"]) == 1  # missing required --epsilon
    # the family-slot flags are gone
    for flag in (["--families", "gamma"], ["--extended"], ["--constraint-tol", "1e-3"]):
        assert cli.main(["optimize", "--epsilon", "1", *flag]) == 1


def test_readme_spec_format_names_every_family():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    spec = readme.split("**Distribution / combination spec**", 1)[1].split("\n- **", 1)[0]
    listed = re.findall(r"`(\w+)\(", spec.split("Families:", 1)[1])
    assert sorted(listed) == sorted(FAMILIES)


def test_readme_config_example_loads(tmp_path):
    # the example carries trailing "; ..." comments on values and headers
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "bench.ini"
    cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    grid, search, query = load_config(cfg)
    assert grid.metric == "usefulness"
    assert grid.metric_params == (0.1, 0.4, 0.6, 0.9)
    assert grid.epsilons == (0.5, 1.0, 2.0, 3.0, 5.0, 8.0)
    assert (search.restarts, search.max_evals, search.mc_trials) == (6, 300, 4000)
    assert (query.kind, query.window) == ("count", 30)
