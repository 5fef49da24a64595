import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import designest
from designest.cli import main
from designest.harness import ESTIMATOR_NAMES, READS_D


@pytest.fixture
def crd_design_yaml(tmp_path):
    path = tmp_path / "design.yaml"
    path.write_text(
        "design:\n"
        "  kind: completely_randomized\n"
        "  n: 6\n"
        "  counts: [3, 3]\n"
    )
    return path


def test_moments_exact_and_exports(crd_design_yaml, tmp_path, capsys):
    out = tmp_path / "m.npz"
    pi_csv = tmp_path / "pi.csv"
    d_csv = tmp_path / "d.csv"
    code = main(
        [
            "moments",
            "--design",
            str(crd_design_yaml),
            "--exact",
            "--out",
            str(out),
            "--pi-csv",
            str(pi_csv),
            "--d-csv",
            str(d_csv),
        ]
    )
    assert code == 0
    assert out.exists()
    lines = pi_csv.read_text().strip().splitlines()
    assert lines[0] == "arm,unit,pi"
    assert len(lines) == 13
    assert d_csv.read_text().startswith("i,j")


def test_moments_exact_matches_mc(crd_design_yaml, tmp_path):
    from designest.moments import DesignMoments

    exact_path = tmp_path / "exact.npz"
    mc_path = tmp_path / "mc.npz"
    assert main(["moments", "--design", str(crd_design_yaml), "--out", str(exact_path)]) == 0
    assert (
        main(
            [
                "moments",
                "--design",
                str(crd_design_yaml),
                "--mc",
                "200000",
                "--seed",
                "3",
                "--out",
                str(mc_path),
            ]
        )
        == 0
    )
    exact = DesignMoments.load_npz(exact_path)
    mc = DesignMoments.load_npz(mc_path)
    se = np.sqrt(np.maximum(exact.pi * (1 - exact.pi), 1e-12) / 200000)
    assert np.all(np.abs(mc.pi - exact.pi) <= 4 * se)


def test_complexity_prints_pairs(crd_design_yaml, capsys):
    assert main(["complexity", "--design", str(crd_design_yaml)]) == 0
    output = capsys.readouterr().out
    assert "arm1" in output
    assert "all arms" in output


def test_complexity_checks_d_symmetric_once(tmp_path, monkeypatch):
    # every arm pair's block of a symmetric D is symmetric: no block is checked again
    from designest import cli
    from designest import moments as moments_module

    shapes, check = [], moments_module.check_symmetric

    def counting(M, name="matrix"):
        shapes.append(M.shape)
        check(M, name)

    monkeypatch.setattr(cli, "check_symmetric", counting)
    monkeypatch.setattr(moments_module, "check_symmetric", counting)
    design = tmp_path / "design.yaml"
    design.write_text("design: {kind: completely_randomized, n: 6, counts: [2, 2, 2]}\n")
    assert main(["complexity", "--design", str(design)]) == 0
    assert shapes == [(18, 18)]


def test_complexity_rejects_an_asymmetric_d(tmp_path, capsys):
    from designest.designs import CompletelyRandomizedDesign
    from designest.moments import exact_moments

    design = tmp_path / "design.yaml"
    design.write_text("design: {kind: completely_randomized, n: 6, counts: [2, 2, 2]}\n")
    moments = exact_moments(CompletelyRandomizedDesign(6, [2, 2, 2]))
    moments.D[0, 7] += 1.0  # in the block of the arm pair (1, 2) only
    moments.save_npz(tmp_path / "m.npz")
    argv = ["complexity", "--design", str(design), "--load-moments", str(tmp_path / "m.npz")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: matrix must be symmetric\n"


def test_bound_command(crd_design_yaml, tmp_path):
    out = tmp_path / "bound.csv"
    report = tmp_path / "cert.json"
    code = main(
        [
            "bound",
            "--design",
            str(crd_design_yaml),
            "--kind",
            "neyman",
            "--out",
            str(out),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    cert = json.loads(report.read_text())
    assert cert["psd_ok"] and cert["identified_ok"]


def test_commands_on_a_crd_load_no_scipy(crd_design_yaml, tmp_path):
    # moments, bound and complexity on a design without exposure rules call
    # no scipy function, so a fresh interpreter running them never imports it
    code = (
        "import sys\n"
        "from designest.cli import main\n"
        f"design = {str(crd_design_yaml)!r}\n"
        "for argv in (['moments', '--design', design, '--exact', '--out', 'm.npz'],\n"
        "             ['bound', '--design', design, '--load-moments', 'm.npz', '--out', 'b.csv'],\n"
        "             ['complexity', '--design', design, '--load-moments', 'm.npz']):\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    src = str(Path(designest.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stderr.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "b.csv").exists()


def test_complexity_on_the_lanczos_route_loads_no_scipy_sparse(tmp_path):
    # kn = 400 takes the numpy Lanczos run; only its Cholesky proof needs
    # scipy, for LAPACK's in-place dpotrf
    design = tmp_path / "design.yaml"
    design.write_text("design: {kind: completely_randomized, n: 200, counts: [100, 100]}\n")
    code = (
        "import sys\n"
        "from designest.cli import main\n"
        f"assert main(['complexity', '--design', {str(design)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    src = str(Path(designest.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    loaded = ast.literal_eval(out.stderr.strip().splitlines()[-1])
    assert "scipy.linalg.lapack" in loaded  # the proof ran
    assert not [m for m in loaded if m.startswith("scipy.sparse")]
    assert f"all arms: {2 * 200 / 199:.6g}" in out.stdout


def test_linear_estimate_on_a_crd_loads_no_scipy(crd_design_yaml, tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text("unit_id,arm,y\n" + "".join(f"{i},{1 + i % 2},{0.5 * i}\n" for i in range(6)))
    cov = tmp_path / "x.csv"
    cov.write_text("unit_id,x1\n" + "".join(f"{i},{(i * 7) % 5}.0\n" for i in range(6)))
    code = (
        "import sys\n"
        "from designest.cli import main\n"
        f"argv = ['estimate', '--design', {str(crd_design_yaml)!r}, '--data', {str(obs)!r},\n"
        f"        '--covariates', {str(cov)!r}, '--estimators', 'ht,hajek,ols,wls',\n"
        "        '--contrast=-1,1', '--out', 'r.json']\n"
        "assert main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    src = str(Path(designest.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stderr.strip().splitlines()[-1] == "[]"
    assert len(json.loads((tmp_path / "r.json").read_text())) == 4


def test_opt_logit_simulate_with_a_certified_population_minimum_loads_no_scipy_optimize(tmp_path):
    # the sample and population fits are one certified Newton solve, which
    # imports nothing of scipy.optimize
    (tmp_path / "sim.yaml").write_text(
        "design: {kind: completely_randomized, n: 30, counts: [12, 18]}\n"
        "covariates: {generate: {p: 2, seed: 21}}\n"
        "outcome: {coeffs: [0.9, -0.6], intercepts: [-0.4, 0.5], seed: 4}\n"
        "estimators: [opt_logit]\ncontrast: [-1, 1]\nseed: 3\nreplications: 2\n"
    )
    code = (
        "import sys\n"
        "from designest.cli import main\n"
        "assert main(['simulate', '--config', 'sim.yaml', '--json', 'sim.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')), file=sys.stderr)\n"
    )
    src = str(Path(designest.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stderr.strip().splitlines()[-1] == "[]"
    theory = json.loads((tmp_path / "sim.json").read_text())["metrics"]["opt_logit"]
    assert np.isfinite(theory["theo_var_times_n"]) and np.isfinite(theory["theo_bound_times_n"])


def test_linear_simulate_with_psd_clip_loads_no_scipy(tmp_path):
    # the clip is the certified one, which needs numpy alone (so does its
    # fallback, the full spectrum)
    (tmp_path / "sim.yaml").write_text(
        "design: {kind: clustered, cluster_of: [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 3],\n"
        "         cluster_design: {kind: completely_randomized, n: 6, counts: [3, 3]}}\n"
        "outcome: {intercepts: [-0.4, 0.5], seed: 4}\n"
        "estimators: [ht, hajek, ols, wls]\ncontrast: [-1, 1]\nseed: 3\nreplications: 4\n"
        "psd_clip: true\n"
    )
    code = (
        "import sys\n"
        "from designest import bounds\n"
        "from designest.cli import main\n"
        "clip, proven = bounds._certified_clip, []\n"
        "bounds._certified_clip = lambda F: proven.append(clip(F) is not None) or clip(F)\n"
        "assert main(['simulate', '--config', 'sim.yaml', '--json', 'sim.json']) == 0\n"
        "assert proven == [True], proven\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    src = str(Path(designest.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stderr.strip().splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "sim.json").read_text())["provenance"]["psd_clipped"] is True


def test_estimate_command(crd_design_yaml, tmp_path):
    obs = tmp_path / "obs.csv"
    rows = ["unit_id,arm,y"]
    for i, (arm, y) in enumerate([(1, 0.5), (2, 1.0), (1, 0.0), (2, 2.0), (1, 1.0), (2, 0.5)]):
        rows.append(f"{i},{arm},{y}")
    obs.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report.json"
    code = main(
        [
            "estimate",
            "--design",
            str(crd_design_yaml),
            "--data",
            str(obs),
            "--estimators",
            "ht,hajek",
            "--contrast=-1,1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 2
    # equal probabilities: both estimators give the difference in arm means
    assert reports[0]["contrast_value"] == pytest.approx(2.0 * (3.5 / 3 - 1.5 / 3) / 2)


def test_simulate_command_deterministic(tmp_path):
    config = tmp_path / "sim.yaml"
    config.write_text(
        "design:\n"
        "  kind: completely_randomized\n"
        "  n: 8\n"
        "  counts: [4, 4]\n"
        "covariates:\n"
        "  generate: {p: 1, seed: 5}\n"
        "outcome:\n"
        "  coeffs: [1.0]\n"
        "  intercepts: [-0.5, 0.5]\n"
        "  seed: 6\n"
        "estimators: [ht, hajek]\n"
        "contrast: [-1, 1]\n"
        "replications: 60\n"
        "seed: 99\n"
    )
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


OPT_LOGIT_RECIPE = (
    "design:\n"
    "  kind: completely_randomized\n"
    "  n: 8\n"
    "  counts: [4, 4]\n"
    "covariates:\n"
    "  generate: {p: 1, seed: 5}\n"
    "outcome:\n"
    "  coeffs: [1.0]\n"
    "  intercepts: [-0.5, 0.5]\n"
    "  seed: 6\n"
    "estimators: [opt_logit]\n"
    "contrast: [-1, 1]\n"
    "replications: 4\n"
    "seed: 99\n"
)


def test_simulate_rejects_an_optimizer_key(tmp_path, capsys):
    # the logistic variance-minimizing fit has no settings: its solve is one
    # certified ridge-penalized Newton iteration
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE + "optimizer: {restarts: 2, max_steps: 200}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "unknown recipe key(s): optimizer;" in err


@pytest.mark.parametrize("workers", ["0", "1.5"])
def test_simulate_rejects_a_worker_count_that_is_not_a_positive_integer(tmp_path, capsys, workers):
    # counts below 2 used to run serially without a word, and 1.5 ran as 1
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]") + f"workers: {workers}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert "workers must be an integer >= 1" in capsys.readouterr().err
    assert main(["simulate", "--config", str(config), "--workers", "1"]) == 0


@pytest.mark.parametrize("level", ["1.5", "-0.2", "0", "1", ".nan"])
def test_simulate_rejects_a_level_outside_the_unit_interval(tmp_path, capsys, level):
    # these used to run and report coverage 0.0 for every estimator
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]") + f"level: {level}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert "level must lie strictly between 0 and 1" in capsys.readouterr().err


def test_simulate_fits_opt_logit(tmp_path):
    config, js = tmp_path / "sim.yaml", tmp_path / "sim.json"
    config.write_text(OPT_LOGIT_RECIPE)
    assert main(["simulate", "--config", str(config), "--json", str(js)]) == 0
    table = json.loads(js.read_text())
    assert table["failures"] == {"opt_logit": 0} and table["theory_errors"] == {}


def test_estimate_reports_the_opt_logit_solve(tmp_path):
    argv = _block_route_argv(tmp_path, "crd")
    argv[argv.index(FIRST_STAGE_ROWS)] = "opt_logit"
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 0
    (report,) = json.loads(out.read_text())
    diagnostics = report["diagnostics"]
    assert list(diagnostics)[:6] == [
        "theta", "moment_norm", "criterion", "newton_steps", "hessian_min_eig", "hessian_max_eig"
    ]
    assert 0 < diagnostics["hessian_min_eig"] <= diagnostics["hessian_max_eig"]
    assert 0 < diagnostics["newton_steps"] < 50


def test_simulate_rejects_an_unknown_moments_method(tmp_path, capsys):
    # a misspelled method used to run Monte-Carlo moments and exit 0
    config = tmp_path / "sim.yaml"
    recipe = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]")
    config.write_text(recipe + "moments: {method: exakt}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert "unknown moments method 'exakt'; known: exact, mc" in capsys.readouterr().err


def test_simulate_mc_recipe_runs_on_its_monte_carlo_moments(tmp_path):
    from designest.designs import CompletelyRandomizedDesign
    from designest.harness import (
        SimConfig, impute_potential_outcomes, preprocess_covariates, run_simulation,
    )
    from designest.moments import mc_moments

    config = tmp_path / "sim.yaml"
    recipe = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht, hajek, wls]")
    recipe = recipe.replace("replications: 4", "replications: 30")
    config.write_text(recipe + "moments: {method: mc, reps: 3000}\n")
    out, report = tmp_path / "cli.csv", tmp_path / "cli.json"
    argv = ["simulate", "--config", str(config), "--out", str(out), "--json", str(report)]
    assert main(argv) == 0
    provenance = json.loads(report.read_text())["provenance"]
    assert provenance["moments_method"] == "monte_carlo"
    assert provenance["moments_reps"] == 3000

    design = CompletelyRandomizedDesign(8, [4, 4])
    X = preprocess_covariates(np.random.default_rng(5).standard_normal((8, 1)))
    table = run_simulation(SimConfig(
        design=design,
        y_full=impute_potential_outcomes(X, [1.0], [-0.5, 0.5], 6),
        X=X,
        estimators=["ht", "hajek", "wls"],
        contrast=np.array([-1.0, 1.0]),
        replications=30,
        seed=99,
        moments=mc_moments(design, 3000, 99 + 1),
    ))
    table.to_csv(tmp_path / "direct.csv")
    assert out.read_bytes() == (tmp_path / "direct.csv").read_bytes()
    assert report.read_text() == table.to_json()


def test_check_command():
    assert main(["check"]) == 0


def test_unknown_design_kind_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("design: {kind: mystery}\n")
    assert main(["moments", "--design", str(bad)]) == 2


def test_exposure_design_yaml_with_rules_and_edge_csv(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("src_id,dst_id\n0,1\n1,0\n1,2\n2,1\n")
    design_yaml = tmp_path / "exposure.yaml"
    design_yaml.write_text(
        "design:\n"
        "  kind: exposure_derived\n"
        "  base: {kind: bernoulli, n: 3, probs: [0.5, 0.5]}\n"
        f"  edges_csv: {edges}\n"
        "  rules:\n"
        "    - {label: d11, own_arms: [2], counts: {2: [1, null]}}\n"
        "    - {label: d10, own_arms: [2], counts: {2: [0, 0]}}\n"
        "    - {label: d01, own_arms: [1], counts: {2: [1, null]}}\n"
        "    - {label: d00, own_arms: [1], counts: {2: [0, 0]}}\n"
    )
    assert main(["complexity", "--design", str(design_yaml), "--exact"]) == 0
    output = capsys.readouterr().out
    assert "arm4" in output


def _exposure_over_strata_csv(tmp_path, edges):
    groups = tmp_path / "groups.csv"
    groups.write_text("unit_id,group_id\n10,a\n20,a\n30,b\n40,b\n")
    design_yaml = tmp_path / "exposure.yaml"
    design_yaml.write_text(
        "design:\n"
        "  kind: exposure_derived\n"
        f"  base: {{kind: stratified, strata_csv: {groups}, counts: [[1, 1], [1, 1]]}}\n"
        f"  {edges}\n"
        "  rules: [{label: c, own_arms: [1]}, {label: t, own_arms: [2], counts: {2: [0, 0]}},\n"
        "          {label: s, own_arms: [2], counts: {2: [1, null]}}]\n"
    )
    return design_yaml


def test_edge_csv_ids_are_the_strata_csv_unit_ids(tmp_path):
    from designest.moments import DesignMoments

    edges = tmp_path / "edges.csv"
    edges.write_text("src_id,dst_id\n10,20\n20,10\n40,10\n")
    by_id = _exposure_over_strata_csv(tmp_path, f"edges_csv: {edges}")
    assert main(["moments", "--design", str(by_id), "--exact", "--out", str(tmp_path / "a.npz")]) == 0
    by_position = _exposure_over_strata_csv(tmp_path, "edges: [[0, 1], [1, 0], [3, 0]]")
    assert main(["moments", "--design", str(by_position), "--exact",
                 "--out", str(tmp_path / "b.npz")]) == 0
    a = DesignMoments.load_npz(tmp_path / "a.npz")
    b = DesignMoments.load_npz(tmp_path / "b.npz")
    assert np.array_equal(a.pi, b.pi) and np.array_equal(a.p, b.p)
    assert a.pi[2 * 4 + 3] == 0.25  # unit 40 and its nominee 10 both treated


def test_edge_csv_with_unknown_unit_id_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("src_id,dst_id\n10,20\n0,1\n")
    design_yaml = _exposure_over_strata_csv(tmp_path, f"edges_csv: {edges}")
    assert main(["moments", "--design", str(design_yaml), "--exact"]) == 2
    assert "unknown unit_id 0" in capsys.readouterr().err


@pytest.mark.parametrize("edges", ["[[0, 1, 2], [3, 4, 5]]", "[[0, 1], [2]]"])
def test_edges_that_are_not_pairs_exit_2(tmp_path, capsys, edges):
    design_yaml = tmp_path / "exposure.yaml"
    design_yaml.write_text(
        "design:\n"
        "  kind: exposure_derived\n"
        "  base: {kind: bernoulli, n: 6, probs: [0.5, 0.5]}\n"
        f"  edges: {edges}\n"
        "  rules: [{label: c, own_arms: [1]}, {label: t, own_arms: [2]}]\n"
    )
    assert main(["moments", "--design", str(design_yaml), "--exact"]) == 2
    assert "edges must be a list of lists of 2 entries each" in capsys.readouterr().err


def test_exposure_rule_count_arm_outside_base_exits_2(tmp_path, capsys):
    design_yaml = tmp_path / "exposure.yaml"
    design_yaml.write_text(
        "design:\n"
        "  kind: exposure_derived\n"
        "  base: {kind: bernoulli, n: 3, probs: [0.5, 0.5]}\n"
        "  edges: [[0, 1], [1, 2]]\n"
        "  rules: [{label: c, own_arms: [1]}, {label: t, own_arms: [2], counts: {3: [0, null]}}]\n"
    )
    assert main(["moments", "--design", str(design_yaml), "--exact"]) == 2
    assert "'t'" in capsys.readouterr().err


def _write_estimate_inputs(tmp_path, obs_ids, cov_ids):
    obs = tmp_path / "obs.csv"
    obs.write_text(
        "unit_id,arm,y\n" + "".join(f"{i},{1 + j % 2},{0.5 * j}\n" for j, i in enumerate(obs_ids))
    )
    cov = tmp_path / "x.csv"
    cov.write_text("unit_id,x1\n" + "".join(f"{i},{(i * 7) % 5}.0\n" for i in cov_ids))
    return obs, cov


def _estimate_argv(design_yaml, obs, cov, estimators="ht"):
    return [
        "estimate", "--design", str(design_yaml), "--data", str(obs),
        "--covariates", str(cov), "--estimators", estimators, "--contrast=-1,1",
    ]


def test_estimate_rejects_duplicate_unit_ids(crd_design_yaml, tmp_path, capsys):
    obs, cov = _write_estimate_inputs(tmp_path, [0, 1, 2, 3, 4, 4], range(6))
    assert main(_estimate_argv(crd_design_yaml, obs, cov)) == 2
    assert "duplicate unit_id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spoil, text, message",
    [
        ("observed", "unit_id,arm,y\n0,1,0.5\n1,2\n", "line 3 has too few fields"),
        ("strata", "unit_id,group_id\n10,a\n20\n", "line 3 has too few fields"),
        ("cluster", "unit_id,group_id\n10,a\n20,a\n30\n", "line 4 has too few fields"),
        ("covariates", "", "line 1"),
        ("covariates", "\nunit_id,x1\n0,1.0\n", "line 1"),
        ("covariates", "x1,unit_id\n1.0,0\n", "header (line 1) must start with unit_id"),
        ("observed", "unit_id,arm,y\n0,1,0.5,7\n1,2,1.0\n", "line 2 has too many fields"),
        ("strata", "unit_id,group_id\n10,a\n20,a,zz\n", "line 3 has too many fields"),
        ("cluster", "unit_id,group_id\n10,a,\n20,a\n30,b\n", "line 2 has too many fields"),
        ("edges", "src_id,dst_id\n0,1\n1,2,3\n", "line 3 has too many fields"),
        ("observed", "unit_id,arm,y,arm\n0,1,0.5,2\n", "header (line 1) repeats column arm"),
        ("strata", "unit_id,group_id\n10,a\n20,a\n20,b\n",
         "duplicate unit_id in the group CSV: [20]"),
        ("cluster", "unit_id,group_id\n10,a\n30,b\n10,b\n",
         "duplicate unit_id in the group CSV: [10]"),
        ("covariates", "unit_id,x1\n0,1.0\n1,2.0\n2,3.0\n1,2.5\n3,4.0\n4,5.0\n5,6.0\n",
         "duplicate unit_id in the covariates CSV: [1]"),
    ],
    ids=["observed_short_row", "strata_short_row", "cluster_short_row", "covariates_empty",
         "covariates_blank_first_line", "covariates_unit_id_not_first", "observed_long_row",
         "strata_long_row", "cluster_trailing_comma", "edges_long_row", "observed_repeated_column",
         "strata_repeated_unit_id", "cluster_repeated_unit_id", "covariates_repeated_unit_id"],
)
def test_malformed_csv_exits_2_naming_its_line(
    crd_design_yaml, tmp_path, capsys, spoil, text, message
):
    obs, cov = _write_estimate_inputs(tmp_path, range(6), range(6))
    groups = {
        "strata": "kind: stratified\n  strata_csv: {csv}\n  counts: [[1, 1], [1, 1]]\n",
        "cluster": "kind: clustered\n  cluster_csv: {csv}\n"
        "  cluster_design: {{kind: completely_randomized, n: 2, counts: [1, 1]}}\n",
        "edges": "kind: exposure_derived\n  base: {{kind: bernoulli, n: 3, probs: [0.5, 0.5]}}\n"
        "  edges_csv: {csv}\n  rules: [{{label: c, own_arms: [1]}}, {{label: t, own_arms: [2]}}]\n",
    }
    if spoil in groups:
        (tmp_path / "groups.csv").write_text(text)
        design_yaml = tmp_path / "design.yaml"
        design_yaml.write_text("design:\n  " + groups[spoil].format(csv=tmp_path / "groups.csv"))
        argv = ["moments", "--design", str(design_yaml), "--exact"]
    else:
        (obs if spoil == "observed" else cov).write_text(text)
        argv = _estimate_argv(crd_design_yaml, obs, cov)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_estimate_rejects_mismatched_unit_ids(crd_design_yaml, tmp_path, capsys):
    obs, cov = _write_estimate_inputs(tmp_path, range(6), [0, 1, 2, 3, 4, 9])
    assert main(_estimate_argv(crd_design_yaml, obs, cov)) == 2
    assert "different unit_id sets" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_estimate_rejects_a_non_finite_outcome(crd_design_yaml, tmp_path, capsys, bad):
    obs = tmp_path / "obs.csv"
    obs.write_text("unit_id,arm,y\n" + "".join(
        f"{i},{1 + i % 2},{bad if i == 4 else 0.5 * i}\n" for i in range(6)
    ))
    argv = ["estimate", "--design", str(crd_design_yaml), "--data", str(obs),
            "--estimators", "ht", "--contrast=-1,1"]
    assert main(argv) == 2
    assert "non-finite y for unit_id 4" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [0, 3])
def test_estimate_names_the_unit_of_an_arm_outside_the_design(
    crd_design_yaml, tmp_path, capsys, bad
):
    # arms are 1-based in the file; 0 and k + 1 used to fail as "[0, k)" with no row
    obs = tmp_path / "obs.csv"
    obs.write_text("unit_id,arm,y\n" + "".join(
        f"{i},{bad if i == 4 else 1 + i % 2},{0.5 * i}\n" for i in range(6)
    ))
    argv = ["estimate", "--design", str(crd_design_yaml), "--data", str(obs),
            "--estimators", "ht", "--contrast=-1,1"]
    assert main(argv) == 2
    assert "arm outside 1..2 for unit_id 4 in the observed-data CSV" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["moments", "complexity", "bound", "estimate"])
@pytest.mark.parametrize("mc", [[], ["--mc", "100"]], ids=["exact", "mc"])
def test_a_negative_seed_is_rejected_naming_the_flag(crd_design_yaml, tmp_path, capsys, command, mc):
    # with --mc numpy refused it without naming the flag; without, it ran
    argv = [command, "--design", str(crd_design_yaml)]
    if command == "estimate":
        argv = _estimate_argv(crd_design_yaml, *_write_estimate_inputs(tmp_path, range(6), range(6)))
    assert main(argv + mc + ["--seed", "-1"]) == 2
    assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_estimate_rejects_a_repeated_estimator(crd_design_yaml, tmp_path, capsys):
    # it used to fit the row twice
    obs, cov = _write_estimate_inputs(tmp_path, range(6), range(6))
    argv = _estimate_argv(crd_design_yaml, obs, cov, "ht,hajek,ht")
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    assert "estimator 'ht' is listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_simulate_rejects_a_repeated_estimator(tmp_path, capsys):
    # it used to fit the row twice: two CSV rows, one JSON metrics key
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht, opt_logit, ht]"))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert "estimator 'ht' is listed more than once" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_rejects_an_infinite_covariate(crd_design_yaml, tmp_path, capsys):
    # bad columns are named by the covariate CSV's header, in estimate and simulate
    obs, cov = _write_estimate_inputs(tmp_path, range(6), range(6))
    good = [(i * 7) % 5 for i in range(6)]
    bad_columns = {
        "x2 has an infinite value": ["inf" if i == 3 else "1.0" for i in range(6)],
        "x2 is entirely missing": [""] * 6,
        "x2 is constant": ["2.5"] * 6,
    }
    recipe = tmp_path / "sim.yaml"
    for message, column in bad_columns.items():
        cov.write_text("unit_id,x1,x2\n" + "".join(
            f"{i},{good[i]}.0,{column[i]}\n" for i in range(6)
        ))
        assert main(_estimate_argv(crd_design_yaml, obs, cov, "ht,ols")) == 2
        assert f"column {message}" in capsys.readouterr().err
        recipe.write_text(
            "design: {kind: completely_randomized, n: 6, counts: [3, 3]}\n"
            f"covariates: {{csv: {cov}}}\n"
            "outcome: {coeffs: [1.0, 0.5], intercepts: [0.0, 1.0]}\n"
            "estimators: [ht]\ncontrast: [-1, 1]\nreplications: 2\nseed: 0\n"
        )
        assert main(["simulate", "--config", str(recipe)]) == 2
        assert f"column {message}" in capsys.readouterr().err
    # a data row with a trailing comma (one field more than the header) names its unit
    cov.write_text("unit_id,x1,x2\n" + "".join(
        f"{i},{good[i]}.0,1.{i}{',' if i == 4 else ''}\n" for i in range(6)
    ))
    message = "covariates CSV line 6 has too many fields (4; the header has 3)"
    assert main(_estimate_argv(crd_design_yaml, obs, cov, "ht,ols")) == 2
    assert message in capsys.readouterr().err
    assert main(["simulate", "--config", str(recipe)]) == 2
    assert message in capsys.readouterr().err


def test_estimate_pairs_rows_by_unit_id(crd_design_yaml, tmp_path):
    # the same units listed in another order give the same report
    out = []
    for order in (range(6), [3, 0, 5, 1, 4, 2]):
        obs, cov = _write_estimate_inputs(tmp_path, range(6), order)
        path = tmp_path / "report.json"
        assert main(_estimate_argv(crd_design_yaml, obs, cov, "wls") + ["--out", str(path)]) == 0
        out.append(path.read_text())
    assert out[0] == out[1]


def test_estimate_reports_a_failing_estimator_and_keeps_the_rest(crd_design_yaml, tmp_path):
    # without covariates the no-harm rescaling is not identified
    obs = tmp_path / "obs.csv"
    obs.write_text("unit_id,arm,y\n" + "".join(f"{i},{1 + i % 2},{0.5 * i}\n" for i in range(6)))
    out = tmp_path / "report.json"
    argv = ["estimate", "--design", str(crd_design_yaml), "--data", str(obs),
            "--estimators", "ht,noharm_wls", "--contrast=-1,1", "--out", str(out)]
    assert main(argv) == 1
    ht, noharm = json.loads(out.read_text())
    assert ht["estimator"] == "ht" and np.isfinite(ht["contrast_value"])
    assert noharm["estimator"] == "noharm_wls"
    assert noharm["error"].startswith("WeakIdentificationError: ")
    assert main(argv[:5] + ["--estimators", "ht,nonesuch", "--contrast=-1,1"]) == 2
    assert main(argv[:5] + ["--estimators", "ht", "--contrast=-1,1,0"]) == 2  # one too many


@pytest.mark.parametrize(
    "names",
    ["ht", "opt_linear", "opt_logit", pytest.param(",".join(ESTIMATOR_NAMES), id="every_row")],
)
def test_estimate_fails_on_an_observed_never_hit_cell(tmp_path, names):
    # five Monte-Carlo draws of a 10% arm leave some units' arm-2 cells at
    # pi = 0; observing one must fail every estimator (opt_linear used to
    # report NaN and exit 0, opt_logit an OptimizationError), and the chunk
    # then has no row for the plug-in pass
    from designest.moments import DesignMoments

    design = tmp_path / "design.yaml"
    design.write_text("design:\n  kind: bernoulli\n  n: 6\n  probs: [0.9, 0.1]\n")
    npz = tmp_path / "m.npz"
    argv = ["moments", "--design", str(design), "--mc", "5", "--seed", "0", "--out", str(npz)]
    assert main(argv) == 0
    never = np.flatnonzero(DesignMoments.load_npz(npz).pi[6:] == 0)
    assert never.size
    arms = [2 if i == never[0] else 1 + i % 2 for i in range(6)]
    obs = tmp_path / "obs.csv"
    obs.write_text("unit_id,arm,y\n" + "".join(f"{i},{a},{0.3 * i}\n" for i, a in enumerate(arms)))
    out = tmp_path / "report.json"
    argv = ["estimate", "--design", str(design), "--data", str(obs), "--load-moments", str(npz),
            "--estimators", names, "--contrast=-1,1", "--out", str(out)]
    assert main(argv) == 1
    error = "ValueError: observed cell with zero inclusion probability"
    reports = json.loads(out.read_text())
    assert reports == [{"estimator": name, "error": error} for name in names.split(",")]


GROUP_DESIGN_IDS = ["stratified", "clustered", "exposure_derived"]
GROUP_DESIGNS = [
    "kind: stratified\n  strata_csv: {groups}\n  counts: [[1, 1], [1, 1]]\n",
    "kind: clustered\n  cluster_csv: {groups}\n"
    "  cluster_design: {{kind: completely_randomized, n: 2, counts: [1, 1]}}\n",
    "kind: exposure_derived\n  edges: [[0, 1]]\n"
    "  base: {{kind: stratified, strata_csv: {groups}, counts: [[1, 1], [1, 1]]}}\n"
    "  rules: [{{label: c, own_arms: [1]}}, {{label: t, own_arms: [2]}}]\n",
]


@pytest.mark.parametrize("design", GROUP_DESIGNS, ids=GROUP_DESIGN_IDS)
def test_estimate_checks_unit_ids_against_group_csv(design, tmp_path, capsys):
    groups = tmp_path / "groups.csv"
    groups.write_text("unit_id,group_id\n10,a\n20,a\n30,b\n40,b\n")
    design_yaml = tmp_path / "design.yaml"
    design_yaml.write_text("design:\n  " + design.format(groups=groups))
    obs = tmp_path / "obs.csv"
    argv = ["estimate", "--design", str(design_yaml), "--data", str(obs), "--estimators", "ht",
            "--contrast=-1,1"]
    for ids, code in (([10, 20, 30, 40], 0), ([1, 2, 3, 4], 2)):
        obs.write_text("unit_id,arm,y\n" + "".join(
            f"{u},{arm},{y}\n" for u, arm, y in zip(ids, [1, 2, 2, 1], [0.5, 1.0, 2.0, 0.0])
        ))
        assert main(argv) == code
    assert "different unit_id sets" in capsys.readouterr().err


@pytest.mark.parametrize("design", GROUP_DESIGNS, ids=GROUP_DESIGN_IDS)
def test_simulate_checks_covariate_ids_against_group_csv(design, tmp_path, capsys):
    # covariates used to be paired with units by sort order alone
    groups = tmp_path / "groups.csv"
    groups.write_text("unit_id,group_id\n10,a\n20,a\n30,b\n40,b\n")
    cov = tmp_path / "x.csv"
    config = tmp_path / "sim.yaml"
    config.write_text(
        "design:\n  " + design.format(groups=groups)
        + f"covariates: {{csv: {cov}}}\n"
        "outcome: {coeffs: [1.0], intercepts: [0.0, 1.0]}\n"
        "estimators: [ht]\ncontrast: [-1, 1]\nreplications: 2\nseed: 0\n"
    )
    for ids, code in (([40, 10, 30, 20], 0), ([10, 20, 30, 50], 2)):
        cov.write_text("unit_id,x1\n" + "".join(f"{u},{x}\n" for u, x in zip(ids, [0.5, 1, 2, 0])))
        assert main(["simulate", "--config", str(config)]) == code
    assert "different unit_id sets (in one only: [40, 50])" in capsys.readouterr().err


def test_simulate_rejects_covariates_of_another_size(tmp_path, capsys):
    # without an id file the count is checked; this used to fail with
    # "y_full must be a stacked kn vector"
    cov = tmp_path / "x.csv"
    cov.write_text("unit_id,x1\n" + "".join(f"{i},{i * 0.5}\n" for i in range(7)))
    config = tmp_path / "sim.yaml"
    recipe = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]")
    config.write_text(recipe.replace("generate: {p: 1, seed: 5}", f"csv: {cov}"))
    assert main(["simulate", "--config", str(config)]) == 2
    assert "the covariates CSV has 7 rows but the design has 8 units" in capsys.readouterr().err


@pytest.fixture(scope="module")
def table_instance(tmp_path_factory):
    """A two-arm CRD with two covariates on which every table estimator is
    defined: covariates and outcomes for simulate, one observed dataset for
    estimate."""
    tmp = tmp_path_factory.mktemp("table")
    n = 40
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((n, 2))
    (tmp / "x.csv").write_text(
        "unit_id,x1,x2\n" + "".join(f"{i},{X[i, 0]:.17g},{X[i, 1]:.17g}\n" for i in range(n))
    )
    arms = rng.permutation(np.repeat([1, 2], n // 2))
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
    (tmp / "obs.csv").write_text(
        "unit_id,arm,y\n" + "".join(f"{i},{arms[i]},{y[i]}\n" for i in range(n))
    )
    design = f"design:\n  kind: completely_randomized\n  n: {n}\n  counts: [{n // 2}, {n // 2}]\n"
    (tmp / "design.yaml").write_text(design)
    return tmp, design


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_every_table_estimator_runs_in_simulate_and_estimate(table_instance, name):
    tmp, design = table_instance
    config = tmp / f"sim_{name}.yaml"
    config.write_text(
        design
        + f"covariates: {{csv: {tmp / 'x.csv'}}}\n"
        + "outcome: {coeffs: [1.0, -0.5], intercepts: [-0.2, 0.4], seed: 3}\n"
        + f"estimators: [{name}]\n"
        + "contrast: [-1, 1]\nreplications: 3\nseed: 5\n"
    )
    sim = tmp / f"sim_{name}.json"
    assert main(["simulate", "--config", str(config), "--json", str(sim)]) == 0
    row = json.loads(sim.read_text())["metrics"][name]
    assert np.isfinite(row["theo_var_times_n"]) and np.isfinite(row["theo_bound_times_n"])

    out = tmp / f"estimate_{name}.json"
    argv = _estimate_argv(tmp / "design.yaml", tmp / "obs.csv", tmp / "x.csv", name)
    assert main(argv + ["--out", str(out)]) == 0
    (report,) = json.loads(out.read_text())
    assert report["estimator"] == name
    assert np.isfinite(report["contrast_value"])


def _truncated(raw):
    return raw[: len(raw) // 2]


def _one_byte_flipped(raw):
    flipped = bytearray(raw)
    at = raw.index(b"D.npy") + 300  # inside D's array data
    flipped[at] ^= 0x01
    return bytes(flipped)


def _not_a_zip(raw):
    return b"unit_id,arm,y\n0,1,0.5\n"


def _member_shorter_than_its_header(raw):
    import io
    import zipfile

    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            dst.writestr(info.filename, data[:-8] if info.filename == "D.npy" else data)
    return out.getvalue()


@pytest.mark.parametrize(
    "spoil", [_truncated, _one_byte_flipped, _not_a_zip, _member_shorter_than_its_header]
)
def test_estimate_with_a_bad_moments_file_exits_2(crd_design_yaml, tmp_path, capsys, spoil):
    good = tmp_path / "good.npz"
    assert main(["moments", "--design", str(crd_design_yaml), "--out", str(good)]) == 0
    bad = tmp_path / "bad.npz"
    bad.write_bytes(spoil(good.read_bytes()))
    obs, cov = _write_estimate_inputs(tmp_path, range(6), range(6))
    capsys.readouterr()
    assert main(_estimate_argv(crd_design_yaml, obs, cov) + ["--load-moments", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not a readable moments file")


@pytest.fixture(scope="module")
def unequal_crd(tmp_path_factory):
    """A 15/25 CRD with two covariates (so the identity and
    inverse-probability weightings differ) and one observed dataset."""
    tmp = tmp_path_factory.mktemp("unequal")
    n = 40
    rng = np.random.default_rng(77)
    X = rng.standard_normal((n, 2))
    (tmp / "x.csv").write_text(
        "unit_id,x1,x2\n" + "".join(f"{i},{X[i, 0]:.17g},{X[i, 1]:.17g}\n" for i in range(n))
    )
    arms = rng.permutation(np.repeat([1, 2], [15, 25]))
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-X[:, 0]))).astype(float) + 0.1 * X[:, 1]
    (tmp / "obs.csv").write_text(
        "unit_id,arm,y\n" + "".join(f"{i},{arms[i]},{y[i]:.17g}\n" for i in range(n))
    )
    (tmp / "design.yaml").write_text(
        f"design:\n  kind: completely_randomized\n  n: {n}\n  counts: [15, 25]\n"
    )
    return tmp


def _per_row_reports(tmp, names, covariates, psd_clip, bound_of):
    """The estimate report built one row at a time, each row on a fresh
    chunk and with plugin_varbound's own plug-in bound."""
    from designest import bounds
    from designest.designs import AssignmentRealization, CompletelyRandomizedDesign
    from designest.harness import ReplicationChunk, estimator, preprocess_covariates
    from designest.linear import (
        load_covariates_csv, load_observed_csv, plugin_report, plugin_varbound
    )
    from designest.moments import closed_form_or_exact_moments

    design = CompletelyRandomizedDesign(40, [15, 25])
    moments = closed_form_or_exact_moments(design)
    _, arms, y = load_observed_csv(tmp / "obs.csv")
    if covariates:
        _, raw, columns = load_covariates_csv(tmp / "x.csv")
        X = preprocess_covariates(raw, names=columns)
    else:
        X = np.zeros((40, 0))
    realization = AssignmentRealization(40, 2, arms)
    bound = (
        bounds.psd_clip(bounds.build_bound(design, moments, "aronow_samii"))
        if psd_clip
        else bound_of(moments, cells=realization.observed_cells)
    )
    c, reports = np.array([-1.0, 1.0]), []
    for name in names:
        chunk = ReplicationChunk(arms[None], y[None], X, moments)
        fit = chunk.fit(estimator(name), c)
        if fit.errors:
            error = fit.errors[0]
            reports.append({"estimator": name, "error": f"{type(error).__name__}: {error}"})
            continue
        plugin = plugin_varbound(fit.z[0], realization, bound, c)
        report = plugin_report(name, fit.mu[0], plugin, 40, moments, c, fit.diagnostics[0])
        reports.append(report.to_dict())
    return json.dumps(reports, indent=2)


@pytest.mark.parametrize("covariates", [True, False], ids=["covariates", "no_covariates"])
@pytest.mark.parametrize("psd_clip", [False, True], ids=["observed_block", "psd_clip"])
def test_estimate_report_equals_its_rows_reported_one_at_a_time(
    unequal_crd, monkeypatch, covariates, psd_clip
):
    # without covariates noharm_wls fails, amid rows that share one weighted fit
    from designest import cli

    names = list(ESTIMATOR_NAMES) if covariates else ["ht", "noharm_wls", "wls", "ols", "ci", "gr"]
    out = unequal_crd / "report.json"
    argv = ["estimate", "--design", str(unequal_crd / "design.yaml"),
            "--data", str(unequal_crd / "obs.csv"), "--estimators", ",".join(names),
            "--contrast=-1,1", "--out", str(out)]
    if covariates:
        argv += ["--covariates", str(unequal_crd / "x.csv")]
    if psd_clip:
        argv += ["--psd-clip"]
    assert main(argv) == (0 if covariates else 1)
    expected = _per_row_reports(unequal_crd, names, covariates, psd_clip, cli.aronow_samii_bound)
    assert out.read_text() == expected
    assert ("error" in expected) != covariates


@pytest.mark.parametrize("covariates", [True, False], ids=["covariates", "no_covariates"])
def test_first_stage_estimate_report_equals_its_rows_reported_one_at_a_time(
    unequal_crd, monkeypatch, covariates
):
    # no row reads D: estimate takes the closed-form observed-block route
    from designest import bounds

    names = [name for name in ESTIMATOR_NAMES if name not in READS_D]
    out = unequal_crd / "first_stage.json"
    argv = ["estimate", "--design", str(unequal_crd / "design.yaml"),
            "--data", str(unequal_crd / "obs.csv"), "--estimators", ",".join(names),
            "--contrast=-1,1", "--out", str(out)]
    if covariates:
        argv += ["--covariates", str(unequal_crd / "x.csv")]
    routes = _record_routes(monkeypatch)
    code = main(argv)
    assert routes == ["observed_block_bound"]
    expected = _per_row_reports(unequal_crd, names, covariates, False, bounds.aronow_samii_bound)
    assert out.read_text() == expected
    assert code == (1 if '"error"' in expected else 0)


def test_estimate_warns_once_per_negative_row(unequal_crd, monkeypatch):
    # a negated observed block makes every finite row's plug-in bound negative
    import dataclasses
    import warnings

    from designest import cli

    observed_block = cli.aronow_samii_bound

    def negated(moments, cells):
        bound = observed_block(moments, cells=cells)
        return dataclasses.replace(bound, Dt_over_p=-bound.Dt_over_p)

    monkeypatch.setattr(cli, "aronow_samii_bound", negated)
    names = ["ht", "noharm_wls", "wls", "mi"]
    out = unequal_crd / "negative.json"
    argv = ["estimate", "--design", str(unequal_crd / "design.yaml"),
            "--data", str(unequal_crd / "obs.csv"), "--estimators", ",".join(names),
            "--contrast=-1,1", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
        expected = _per_row_reports(unequal_crd, names, False, False, negated)
    reports = json.loads(out.read_text())
    assert out.read_text() == expected
    assert [r.get("diagnostics", {}).get("negative_bound") for r in reports] == [
        True, None, True, True
    ]
    negative = [w for w in caught if "negative variance-bound" in str(w.message)]
    assert len(negative) == 2 * 3  # the estimate command's rows, then the reference's


BLOCK_ROUTE_DESIGNS = {
    "crd": "{kind: completely_randomized, n: 24, counts: [6, 8, 10]}",
    "bernoulli": "{kind: bernoulli, n: 24, probs: [0.25, 0.35, 0.4]}",
    "stratified": "{kind: stratified, strata: [[0, 3, 6, 9, 12, 15, 18, 21, 22, 23],"
    " [1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20]], counts: [[3, 3, 4], [4, 5, 5]]}",
}
FIRST_STAGE_ROWS = "ht,hajek,ols,wls,ci,mi,gr,qmle_logit"


def _block_route_argv(tmp_path, kind):
    """estimate's argv for the first-stage rows on one draw of a design of
    BLOCK_ROUTE_DESIGNS, with two covariates."""
    import yaml

    from designest.designs import build_design, stream_rng

    design = tmp_path / "design.yaml"
    design.write_text(f"design: {BLOCK_ROUTE_DESIGNS[kind]}\n")
    arms = build_design(yaml.safe_load(BLOCK_ROUTE_DESIGNS[kind])).sample(stream_rng(4)).arm_of
    rng = np.random.default_rng(9)
    X = rng.standard_normal((24, 2))
    y = (X[:, 0] + 0.5 * arms > rng.logistic(size=24)).astype(float)
    (tmp_path / "obs.csv").write_text(
        "unit_id,arm,y\n" + "".join(f"{i},{a + 1},{v}\n" for i, (a, v) in enumerate(zip(arms, y)))
    )
    (tmp_path / "x.csv").write_text(
        "unit_id,x1,x2\n" + "".join(f"{i},{a:.17g},{b:.17g}\n" for i, (a, b) in enumerate(X))
    )
    return ["estimate", "--design", str(design), "--data", str(tmp_path / "obs.csv"),
            "--covariates", str(tmp_path / "x.csv"), "--estimators", FIRST_STAGE_ROWS,
            "--contrast=-1,0.5,0.5"]


def _record_routes(monkeypatch):
    """The list to which the CLI appends the name of each bound builder it
    calls: observed_block_bound (the closed-form block route, no full
    moments) or aronow_samii_bound (from the full moments)."""
    from designest import cli

    routes = []

    def recorder(name):
        build = getattr(cli, name)

        def recorded(*args, **kwargs):
            routes.append(name)
            return build(*args, **kwargs)

        return recorded

    for name in ("observed_block_bound", "aronow_samii_bound"):
        monkeypatch.setattr(cli, name, recorder(name))
    return routes


@pytest.mark.parametrize("kind", BLOCK_ROUTE_DESIGNS)
def test_first_stage_estimate_writes_the_full_routes_bytes(tmp_path, monkeypatch, kind):
    from designest import cli

    argv = _block_route_argv(tmp_path, kind)
    routes = _record_routes(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "block.json")]) == 0
    # as for a kind without a closed form: full moments, the block gathered
    monkeypatch.setattr(cli, "has_closed_form", lambda design: False)
    assert main(argv + ["--out", str(tmp_path / "full.json")]) == 0
    assert routes == ["observed_block_bound", "aronow_samii_bound"]
    block = (tmp_path / "block.json").read_bytes()
    assert block == (tmp_path / "full.json").read_bytes()
    assert b"error" not in block


def test_first_stage_estimate_fits_without_p_and_d(tmp_path, monkeypatch):
    # no first-stage row reads them, and at n = 5,000 they weigh 0.4 GB
    from designest import cli

    chunks, fit_rows = [], cli.fit_rows

    def recorded(chunk, *args):
        chunks.append(chunk)
        return fit_rows(chunk, *args)

    monkeypatch.setattr(cli, "fit_rows", recorded)
    routes = _record_routes(monkeypatch)
    assert main(_block_route_argv(tmp_path, "crd") + ["--out", str(tmp_path / "r.json")]) == 0
    moments = chunks[0].moments
    assert moments.p is None and moments.D is None
    assert routes == ["observed_block_bound"]


@pytest.mark.parametrize(
    "extra",
    [["--estimators", "ht,opt_linear"], ["--psd-clip"], ["--load-moments", "m.npz"],
     ["--mc", "500"]],
    ids=["opt_linear", "psd_clip", "load_moments", "mc"],
)
def test_estimate_builds_the_full_moments_when_it_needs_them(tmp_path, monkeypatch, extra):
    argv = _block_route_argv(tmp_path, "crd")
    npz = tmp_path / "m.npz"
    assert main(["moments", "--design", argv[2], "--out", str(npz)]) == 0
    extra = [str(npz) if arg == "m.npz" else arg for arg in extra]
    routes = _record_routes(monkeypatch)
    main(argv + extra + ["--out", str(tmp_path / "report.json")])
    assert routes == ["aronow_samii_bound"]


@pytest.mark.parametrize("bad, yaml_bad", [("nan", ".nan"), ("inf", ".inf"), ("-inf", "-.inf")])
def test_a_non_finite_contrast_is_rejected(crd_design_yaml, tmp_path, capsys, bad, yaml_bad):
    # it used to run and write NaN or Infinity, which is not JSON, into the report
    obs = tmp_path / "obs.csv"
    obs.write_text("unit_id,arm,y\n" + "".join(f"{i},{1 + i % 2},{0.5 * i}\n" for i in range(6)))
    argv = ["estimate", "--design", str(crd_design_yaml), "--data", str(obs),
            "--estimators", "ht", f"--contrast={bad},1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert "contrast weights must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    config = tmp_path / "sim.yaml"
    config.write_text(
        OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]").replace("[-1, 1]", f"[{yaml_bad}, 1]")
    )
    assert main(["simulate", "--config", str(config)]) == 2
    assert "contrast weights must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, field",
    [
        ("replications: 2.9", "replications"),
        ("replications: true", "replications"),
        ("seed: 99.7", "seed"),
        ("seed: true", "seed"),
        ("moments: {method: mc, reps: 1000.5}", "moments.reps"),
        ("moments: {method: mc, reps: true}", "moments.reps"),
        ("moments: {method: mc, reps: '1000'}", "moments.reps"),
    ],
)
def test_simulate_rejects_a_count_or_seed_that_is_not_an_integer(tmp_path, capsys, line, field):
    # 2.9 replications at seed 99.7 used to run as 2 replications at seed 99
    recipe = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]")
    key = line.partition(":")[0]
    lines = [row for row in recipe.splitlines() if not row.startswith(key + ":")]
    config = tmp_path / "sim.yaml"
    config.write_text("\n".join(lines + [line]) + "\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, key",
    [
        ("  seed: 6.7", "outcome.seed"),
        ("  seed: true", "outcome.seed"),
        ("  generate: {p: 1, seed: 5.5}", "covariates.generate.seed"),
        ("  generate: {p: 1, seed: -5}", "covariates.generate.seed"),
        ("  generate: {p: 1.0, seed: 5}", "covariates.generate.p"),
        ("  generate: {p: true, seed: 5}", "covariates.generate.p"),
    ],
)
def test_simulate_rejects_a_nested_seed_or_count_that_is_not_an_integer(
    tmp_path, capsys, line, key
):
    # outcome seed 6.7 used to run as seed 6; generate seed 5.5 ended in a TypeError traceback
    recipe = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]")
    old = "  seed: 6\n" if key == "outcome.seed" else "  generate: {p: 1, seed: 5}\n"
    config = tmp_path / "sim.yaml"
    config.write_text(recipe.replace(old, line + "\n"))
    assert main(["simulate", "--config", str(config)]) == 2
    assert f"{key} must be an integer >= 0, got" in capsys.readouterr().err


@pytest.mark.parametrize("value", ['"false"', "1", "null"])
def test_simulate_rejects_a_psd_clip_that_is_not_a_boolean(tmp_path, capsys, value):
    # the string "false" used to turn the clip on
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]") + f"psd_clip: {value}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert "psd_clip must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("seed: 99\n", "seed: 99\npsd_clp: true\n", "unknown recipe key(s): psd_clp;"),
        ("seed: 99\n", "seed: 99\nmoments: {methd: mc}\n", "unknown moments key(s): methd;"),
        ("  generate: {p: 1, seed: 5}\n", "  generate: {p: 1, seed: 5}\n  topcode: [0]\n",
         "unknown covariates key(s): topcode;"),
        ("{p: 1, seed: 5}", "{p: 1, sed: 5}", "unknown covariates.generate key(s): sed;"),
        ("  seed: 6\n", "  sed: 3\n", "unknown outcome key(s): sed;"),
        ("replications: 4\n", "", "recipe is missing required key(s): replications"),
        ("  intercepts: [-0.5, 0.5]\n", "", "outcome is missing required key(s): intercepts"),
        ("{p: 1, seed: 5}", "{seed: 5}", "covariates.generate is missing required key(s): p"),
    ],
)
def test_simulate_rejects_unknown_and_missing_recipe_keys(tmp_path, capsys, old, new, message):
    # an unknown key used to be ignored (psd_clp ran unclipped, methd ran exact
    # moments, topcode top-coded nothing, sed ran seed 0); a missing one printed
    # only its name, as in "error: 'replications'"
    recipe = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]")
    assert recipe.count(old) == 1
    config = tmp_path / "sim.yaml"
    config.write_text(recipe.replace(old, new))
    assert main(["simulate", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[opt_logit]", "ht", "estimators must be a nonempty list of estimator names, got 'ht'"),
        ("[opt_logit]", "[]", "estimators must be a nonempty list of estimator names, got []"),
        ("{p: 1, seed: 5}", "{p: 1, seed: 5}\n  topcode_columns: [7]",
         "topcode_columns must be a list of column positions in [0, 1), got [7]"),
        ("{p: 1, seed: 5}", "{p: 1, seed: 5}\n  topcode_columns: [x1]",
         "topcode_columns must be a list of column positions in [0, 1), got ['x1']"),
        ("[-0.5, 0.5]", "[-0.5, 0.5, 1.0]",
         "outcome.intercepts must be a list of one value per arm (2), got [-0.5, 0.5, 1.0]"),
    ],
)
def test_simulate_rejects_an_invalid_recipe_value(tmp_path, capsys, old, new, message):
    # "ht" used to fail as "unknown estimator 'h'" and [] in numpy's stack;
    # out-of-range or named top-code columns were ignored; a third intercept
    # failed as "y_full must be a stacked kn vector"
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE.replace(old, new))
    assert main(["simulate", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err


EXPOSURE_RING = (
    "design:\n"
    "  kind: exposure_derived\n"
    "  base: {kind: bernoulli, n: 4, probs: [0.5, 0.5]}\n"
    "  edges: [[0, 1], [1, 2], [2, 3], [3, 0]]\n"
    "  rules:\n"
    "    - {label: d11, own_arms: [2], counts: {2: [1, null]}}\n"
    "    - {label: d10, own_arms: [2], counts: {2: [0, 0]}}\n"
    "    - {label: d01, own_arms: [1], counts: {2: [1, null]}}\n"
    "    - {label: d00, own_arms: [1], counts: {2: [0, 0]}}\n"
)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("  rules:", '  undirected: "false"\n  rules:', "undirected must be true or false, got 'false'"),
        ("  rules:", "  undirectd: true\n  rules:", "unknown exposure_derived design key(s): undirectd;"),
        ("n: 4, probs", "n: 4, prob", "unknown bernoulli design key(s): prob;"),
        ("[1], counts: {2: [0, 0]}", "[1], count: {2: [0, 0]}",
         "unknown exposure rule key(s): count;"),
    ],
)
def test_design_rejects_a_non_boolean_undirected_and_keys_its_kind_does_not_read(
    tmp_path, capsys, old, new, message
):
    # undirected: "false" used to run as true, and a misspelled key was ignored
    design_yaml = tmp_path / "design.yaml"
    design_yaml.write_text(EXPOSURE_RING.replace("  rules:", "  undirected: false\n  rules:"))
    assert main(["moments", "--design", str(design_yaml)]) == 0
    assert EXPOSURE_RING.count(old) == 1
    design_yaml.write_text(EXPOSURE_RING.replace(old, new))
    assert main(["moments", "--design", str(design_yaml)]) == 2
    assert message in capsys.readouterr().err


SIMPLE_RECIPE = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]")
RING_RULES = EXPOSURE_RING[EXPOSURE_RING.index("  rules:"):]


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("simulate", SIMPLE_RECIPE + "level: [0.9]\n", "level must be a number, got [0.9]"),
        ("simulate", SIMPLE_RECIPE + "level: '0.9'\n", "level must be a number, got '0.9'"),
        ("simulate", SIMPLE_RECIPE.replace("coeffs: [1.0]", "coeffs: 3"),
         "outcome.coeffs must be a list of one value per covariate column (1), got 3"),
        ("simulate", SIMPLE_RECIPE.replace("contrast: [-1, 1]", "contrast: {a: 1}"),
         "contrast must be a list of numbers, one per arm, got {'a': 1}"),
        ("moments", EXPOSURE_RING.replace(RING_RULES, "  rules: 5\n"), "rules must be a list, got 5"),
        ("moments", EXPOSURE_RING.replace("d01, own_arms: [1]", "d01, own_arms: 1"),
         "exposure 'd01': own_arms must be a list, got 1"),
        ("moments", EXPOSURE_RING.replace("d10, own_arms: [2], counts: {2: [0, 0]}",
                                          "d10, own_arms: [2], counts: {2: 3}"),
         "exposure 'd10': count interval of arm 2 must be [lo, hi], got 3"),
        ("moments", "design: {kind: completely_randomized, n: 3, counts: 3}\n",
         "counts must be a list, got 3"),
        ("moments", "design: {kind: clustered, cluster_of: 3, cluster_design: "
                    "{kind: completely_randomized, n: 2, counts: [1, 1]}}\n",
         "cluster_of must be a list, got 3"),
        ("moments", "design: {kind: stratified, strata: 3, counts: [[1, 1]]}\n",
         "strata must be a list of lists, got 3"),
        ("moments", "design: {kind: stratified, strata: [[0, 1], [2, 3]], counts: [[1, 1]]}\n",
         "one count vector per stratum required"),
        ("moments", "design: {kind: stratified, strata: [[0, 1], [2, 3]], "
                    "counts: [[1, 1], [1, 1, 0]]}\n",
         "all strata must use the same number of arms"),
        ("moments", "design: {kind: clustered, cluster_of: [0, 0, 2, 2], cluster_design: "
                    "{kind: completely_randomized, n: 3, counts: [1, 2]}}\n",
         "cluster ids must cover 0..C-1"),
        ("moments", "design: {kind: clustered, cluster_of: [0, 0, 1, 1], cluster_design: "
                    "{kind: completely_randomized, n: 3, counts: [1, 2]}}\n",
         "cluster design size must equal number of clusters"),
    ],
    ids=["level_list", "level_string", "coeffs", "contrast", "rules", "own_arms",
         "count_interval", "crd_counts", "cluster_of", "strata", "count_vectors",
         "count_lengths", "cluster_gap", "cluster_design_n"],
)
def test_a_mistyped_spec_value_exits_2_and_names_its_key(tmp_path, capsys, command, text, message):
    # each up to strata used to end in a TypeError traceback with exit code 1,
    # and the string '0.9' ran as the level 0.9; the design constructors'
    # own checks follow
    spec = tmp_path / "spec.yaml"
    spec.write_text(text)
    flag = "--config" if command == "simulate" else "--design"
    assert main([command, flag, str(spec)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("moments", "design: {kind: stratified, counts: [[1, 1]]}\n",
         "stratified design needs exactly one of strata, strata_csv; got none"),
        ("moments", "design: {kind: stratified, strata: [[0, 1]], strata_csv: s.csv, "
                    "counts: [[1, 1]]}\n",
         "stratified design needs exactly one of strata, strata_csv; got strata, strata_csv"),
        ("moments", "design: {kind: stratified, strata: [[0, 1]]}\n",
         "stratified design needs exactly one of counts, proportions, pattern; got none"),
        ("moments", "design: {kind: stratified, strata: [[0, 1]], counts: [[1, 1]], "
                    "proportions: [0.5, 0.5]}\n",
         "stratified design needs exactly one of counts, proportions, pattern; "
         "got counts, proportions"),
        ("moments", "design: {kind: stratified, strata: [[0, 1]], pattern: [1, 2]}\n",
         "stratified design key k is required with pattern and read only with it"),
        ("moments", "design: {kind: stratified, strata: [[0, 1]], counts: [[1, 1]], k: 2}\n",
         "stratified design key k is required with pattern and read only with it"),
        ("moments", "design: {kind: clustered, cluster_design: "
                    "{kind: completely_randomized, n: 2, counts: [1, 1]}}\n",
         "clustered design needs exactly one of cluster_of, cluster_csv; got none"),
        ("moments", EXPOSURE_RING.replace("  edges: [[0, 1], [1, 2], [2, 3], [3, 0]]\n", ""),
         "exposure_derived design needs exactly one of edges, edges_csv; got none"),
        ("moments", EXPOSURE_RING.replace("  rules:", "  edges_csv: e.csv\n  rules:"),
         "exposure_derived design needs exactly one of edges, edges_csv; got edges, edges_csv"),
        ("simulate", SIMPLE_RECIPE.replace("  generate:", "  csv: x.csv\n  generate:"),
         "covariates needs exactly one of csv, generate; got csv, generate"),
        ("simulate", SIMPLE_RECIPE.replace("  generate: {p: 1, seed: 5}", "  topcode_columns: []"),
         "covariates needs exactly one of csv, generate; got none"),
        ("simulate", SIMPLE_RECIPE + "moments: {npz: m.npz, method: mc}\n",
         "moments needs at most one of npz, method; got npz, method"),
        ("simulate", SIMPLE_RECIPE + "moments: {npz: m.npz, reps: 10}\n",
         "moments needs at most one of npz, reps; got npz, reps"),
    ],
    ids=["no_strata", "two_strata", "no_counts", "counts_and_proportions", "pattern_without_k",
         "k_without_pattern", "no_cluster_of", "no_edges", "two_edges", "csv_and_generate",
         "no_covariate_source", "npz_and_method", "npz_and_reps"],
)
def test_a_missing_or_second_alternative_exits_2_and_names_its_group(
    tmp_path, capsys, command, text, message
):
    # a missing alternative used to print a bare KeyError such as "error: 'k'",
    # and a second one ran, silently dropping one of the two
    spec = tmp_path / "spec.yaml"
    spec.write_text(text)
    flag = "--config" if command == "simulate" else "--design"
    assert main([command, flag, str(spec)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "moments", ["{reps: 1000}", "{method: exact, reps: 1000}"], ids=["default", "exact"]
)
def test_moments_reps_without_the_mc_method_exits_2_and_names_it(tmp_path, capsys, moments):
    # reps used to be ignored: the exact moments ran and the exit code was 0
    spec = tmp_path / "spec.yaml"
    spec.write_text(SIMPLE_RECIPE + "moments: {method: mc, reps: 1000}\n")
    assert main(["simulate", "--config", str(spec), "--out", str(tmp_path / "m.csv")]) == 0
    spec.write_text(SIMPLE_RECIPE + f"moments: {moments}\n")
    assert main(["simulate", "--config", str(spec)]) == 2
    assert "moments.reps is read only with method: mc" in capsys.readouterr().err


@pytest.mark.parametrize(
    "recipe, message",
    [
        (SIMPLE_RECIPE.replace("[ht]", "[ht, nope]"), "unknown estimator 'nope'"),
        (SIMPLE_RECIPE + "psd_clip: 'yes'\n", "psd_clip must be true or false"),
        (SIMPLE_RECIPE + "bound: neyman_crd\n", "unknown bound kind 'neyman_crd'"),
        (SIMPLE_RECIPE.replace("counts: [4, 4]", "counts: [3, 3, 2]").replace(
            "[-0.5, 0.5]", "[-0.5, 0.5, 0]").replace("[-1, 1]", "[-1, 1, 0]") + "bound: neyman\n",
         "the neyman bound needs a two-arm completely randomized design"),
    ],
    ids=["estimator", "psd_clip", "bound", "neyman_on_three_arms"],
)
def test_a_rejected_recipe_computes_no_moments(tmp_path, capsys, monkeypatch, recipe, message):
    # every other key is checked before a Monte-Carlo run or an enumeration starts
    from designest import cli

    def no_moments(*args, **kwargs):
        raise AssertionError("moments computed for a rejected recipe")

    monkeypatch.setattr(cli, "mc_moments", no_moments)
    spec = tmp_path / "spec.yaml"
    spec.write_text(recipe + f"moments: {{method: mc, reps: {10**9}}}\n")
    assert main(["simulate", "--config", str(spec)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "design, key",
    [
        ("{kind: bernoulli, n: 4, probs: [1.0, null]}", "probs"),
        ("{kind: bernoulli, n: 4, probs: [1.0, .nan]}", "probs"),
        ("{kind: bernoulli, n: 4, probs: [.inf, -.inf]}", "probs"),
        ("{kind: bernoulli, n: 4, probs: [true, false]}", "probs"),
        ("{kind: stratified, strata: [[0, 1], [2, 3]], proportions: [0.5, null]}", "proportions"),
        ("{kind: stratified, strata: [[0, 1], [2, 3]], proportions: [0.5, .nan]}", "proportions"),
        ("{kind: clustered, cluster_of: [0, 0, 1], "
         "cluster_design: {kind: bernoulli, n: 2, probs: [.nan, 1.0]}}", "probs"),
    ],
)
def test_a_non_finite_design_probability_exits_2_and_names_its_key(tmp_path, capsys, design, key):
    # probs [1.0, null] used to exit 0 with arm 2's pi NaN; proportions [0.5, null]
    # exited 2 naming "counts of stratum 0 sum to -9223372036854775807"
    spec = tmp_path / "design.yaml"
    spec.write_text(f"design: {design}\n")
    assert main(["moments", "--design", str(spec), "--exact"]) == 2
    assert f"{key} must hold finite numbers only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("coeffs: [1.0]", "coeffs: [null]", "outcome.coeffs"),
        ("coeffs: [1.0]", "coeffs: [.nan]", "outcome.coeffs"),
        ("coeffs: [1.0]", "coeffs: [true]", "outcome.coeffs"),
        ("intercepts: [-0.5, 0.5]", "intercepts: [null, 0.5]", "outcome.intercepts"),
        ("intercepts: [-0.5, 0.5]", "intercepts: [.inf, 0.5]", "outcome.intercepts"),
        ("intercepts: [-0.5, 0.5]", "intercepts: [-.inf, 0.5]", "outcome.intercepts"),
        ("intercepts: [-0.5, 0.5]", "intercepts: ['-0.5', 0.5]", "outcome.intercepts"),
    ],
)
def test_a_non_finite_outcome_parameter_exits_2_and_names_its_key(tmp_path, capsys, old, new, key):
    # coeffs [0.8, null] used to exit 0 with every potential outcome 0
    spec = tmp_path / "spec.yaml"
    spec.write_text(SIMPLE_RECIPE.replace(old, new))
    assert main(["simulate", "--config", str(spec)]) == 2
    assert f"{key} must hold finite numbers only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "design",
    [
        "{kind: bernoulli, n: 4.7, probs: [0.5, 0.5]}",
        "{kind: bernoulli, n: [4], probs: [0.5, 0.5]}",
        "{kind: completely_randomized, n: 4.0, counts: [2, 2]}",
        "{kind: completely_randomized, n: [4], counts: [2, 2]}",
        "{kind: stratified, n: 4.5, strata: [[0, 1], [2, 3]], counts: [[1, 1], [1, 1]]}",
        "{kind: stratified, n: [4], strata: [[0, 1], [2, 3]], counts: [[1, 1], [1, 1]]}",
    ],
    ids=["bernoulli_float", "bernoulli_list", "crd_float", "crd_list", "stratified_float",
         "stratified_list"],
)
def test_a_design_n_that_is_no_integer_exits_2_and_names_it(tmp_path, capsys, design):
    # n: 4.7 used to run as n = 4, and n: [4] ended in a TypeError with exit 1
    spec = tmp_path / "design.yaml"
    spec.write_text(f"design: {design}\n")
    assert main(["moments", "--design", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "n must be an integer >= 1, got " in err, err


BEYOND_FLOAT64 = 10**400
CLUSTER_PAIRS = "cluster_design: {kind: completely_randomized, n: 2, counts: [1, 1]}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("design: {kind: completely_randomized, n: 6, counts: [3.5, 2.5]}\n",
         "counts must hold integers only, got [3.5, 2.5]"),
        ("design: {kind: stratified, strata: [[0, 1.4], [2, 3]], counts: [[1, 1], [1, 1]]}\n",
         "strata must hold integers only, got [[0, 1.4], [2, 3]]"),
        ("design: {kind: stratified, strata: [[0, 1], [2, 3]], counts: [[1.6, 1.4], [1, 1]]}\n",
         "counts must hold integers only, got [[1.6, 1.4], [1, 1]]"),
        ("design: {kind: stratified, strata: [[0, 1], [2, 3]], pattern: [1, 2.5], k: 2}\n",
         "pattern must hold integers only, got [1, 2.5]"),
        ("design: {kind: stratified, strata: [[0, 1], [2, 3]], pattern: [1, 2], k: 2.5}\n",
         "k must be an integer >= 1, got 2.5"),
        (f"design: {{kind: clustered, cluster_of: [0, 0.5, 1, 1.7], {CLUSTER_PAIRS}}}\n",
         "cluster_of must hold integers only, got [0, 0.5, 1, 1.7]"),
        (EXPOSURE_RING.replace("[[0, 1], [1, 2]", "[[0, 1.6], [1, 2]"),
         "edges must hold integers only, got [[0, 1.6], [1, 2], [2, 3], [3, 0]]"),
        (EXPOSURE_RING.replace("d11, own_arms: [2]", "d11, own_arms: [2.6]"),
         "exposure 'd11': own_arms must hold integers only, got [2.6]"),
        (EXPOSURE_RING.replace("d01, own_arms: [1]", "d01, own_arms: [true]"),
         "exposure 'd01': own_arms must hold integers only, got [True]"),
        (EXPOSURE_RING.replace("d11, own_arms: [2], counts: {2: [1, null]}",
                               "d11, own_arms: [2], counts: {2: [1.9, null]}"),
         "exposure 'd11': counts must map an integer arm to integer bounds [lo, hi] "
         "(hi may be null), got 2: [1.9, None]"),
        (EXPOSURE_RING.replace("d10, own_arms: [2], counts: {2: [0, 0]}",
                               "d10, own_arms: [2], counts: {2: [0, 0.5]}"),
         "exposure 'd10': counts must map an integer arm to integer bounds [lo, hi] "
         "(hi may be null), got 2: [0, 0.5]"),
        (EXPOSURE_RING.replace("d10, own_arms: [2], counts: {2: [0, 0]}",
                               "d10, own_arms: [2], counts: {2.0: [0, 0]}"),
         "exposure 'd10': counts must map an integer arm to integer bounds [lo, hi] "
         "(hi may be null), got 2.0: [0, 0]"),
        (f"design: {{kind: bernoulli, n: 3, probs: [{BEYOND_FLOAT64}, 0]}}\n",
         f"probs must hold finite numbers only, within float64's range, got [{BEYOND_FLOAT64}, 0]"),
        (f"design: {{kind: completely_randomized, n: 3, counts: [{BEYOND_FLOAT64}, 0]}}\n",
         f"counts must hold integers within int64's range, got [{BEYOND_FLOAT64}, 0]"),
        ("design: {kind: stratified, strata: [[0, 1], [2, 3]], pattern: [1, 2], "
         f"k: {BEYOND_FLOAT64}}}\n",
         f"k must be an integer <= {2**63 - 1}, got {BEYOND_FLOAT64}"),
        (f"design: {{kind: bernoulli, n: {2**63}, probs: [0.5, 0.5]}}\n",
         f"n must be an integer <= {2**63 - 1}, got {2**63}"),
    ],
    ids=["crd_counts", "strata_member", "stratified_counts", "pattern", "k", "cluster_of",
         "edges", "own_arms_float", "own_arms_bool", "count_lo", "count_hi", "count_arm",
         "probs_beyond_float64", "counts_beyond_int64", "k_beyond_int64", "n_beyond_int64"],
)
def test_a_design_key_that_holds_no_integer_exits_2_and_names_it(tmp_path, capsys, text, message):
    # each but k and the last four used to run, the entry cast to an integer
    # (3.5 as 3, true as 1); k: 2.5 ended in a TypeError with exit 1, a
    # 401-digit integer in an OverflowError traceback with exit 1, and n: 2**63
    # in numpy's "Maximum allowed dimension exceeded"
    spec = tmp_path / "design.yaml"
    spec.write_text(text)
    assert main(["moments", "--design", str(spec)]) == 2
    err = capsys.readouterr().err
    assert message in err, err


@pytest.mark.parametrize(
    "n, message",
    [("4.5", "n must be an integer >= 1, got 4.5"), ("99", "strata must partition units 0..n-1")],
)
def test_a_strata_csv_design_checks_its_n(tmp_path, capsys, n, message):
    # with strata_csv the n key used to be ignored, whatever it held
    (tmp_path / "s.csv").write_text("unit_id,group_id\n1,a\n2,a\n3,b\n4,b\n")
    spec = tmp_path / "design.yaml"
    text = "design: {kind: stratified, strata_csv: %s, n: %s, counts: [[1, 1], [1, 1]]}\n"
    spec.write_text(text % (tmp_path / "s.csv", 4))
    assert main(["moments", "--design", str(spec)]) == 0
    spec.write_text(text % (tmp_path / "s.csv", n))
    assert main(["moments", "--design", str(spec)]) == 2
    assert message in capsys.readouterr().err


def test_readme_recipe_runs(tmp_path):
    # keeps every key of the documented recipe inside the unknown-key check
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    intro = "A simulation recipe adds outcomes, estimators, and budgets:\n\n```yaml\n"
    recipe = readme.split(intro)[1].split("```")[0]
    assert recipe.count("replications: 2000\n") == 1
    config = tmp_path / "sim.yaml"
    config.write_text(recipe.replace("replications: 2000\n", "replications: 3\n"))
    assert main(["simulate", "--config", str(config)]) == 0


def _replace_psd_clip(monkeypatch, replacement):
    """Put replacement wherever a designest module binds psd_clip."""
    from designest import bounds

    original = bounds.psd_clip
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "designest" or name.startswith("designest.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
    return original


def _count_psd_clip(monkeypatch):
    """The list of bound names psd_clip is called on from here on."""
    calls = []

    def counted(bound):
        calls.append(bound.name)
        return original(bound)

    original = _replace_psd_clip(monkeypatch, counted)
    return calls


@pytest.fixture
def clustered_design_yaml(tmp_path):
    # clusters of 1-3 units: the pairs across arms within a cluster are never joint
    groups = tmp_path / "clusters.csv"
    groups.write_text(
        "unit_id,group_id\n" + "".join(f"{u},{g}\n" for u, g in enumerate("aabcccdd"))
    )
    path = tmp_path / "design.yaml"
    path.write_text(
        f"design:\n  kind: clustered\n  cluster_csv: {groups}\n"
        "  cluster_design: {kind: completely_randomized, n: 4, counts: [2, 2]}\n"
    )
    return path


def _bound_outputs(design_yaml, kind, tmp_path, capsys, flags):
    out, report = tmp_path / "bound.csv", tmp_path / "cert.json"
    argv = ["bound", "--design", str(design_yaml), "--kind", kind,
            "--out", str(out), "--report", str(report)]
    assert main(argv + flags) == 0
    stdout = capsys.readouterr().out
    return stdout, out.read_bytes(), report.read_bytes()


@pytest.mark.parametrize("kind", ["aronow_samii", "neyman"])
def test_bound_psd_clip_flag_changes_no_output(
    kind, clustered_design_yaml, crd_design_yaml, tmp_path, capsys, monkeypatch
):
    # the clip reshapes only the weighted form, which bound neither writes nor certifies
    design_yaml = clustered_design_yaml if kind == "aronow_samii" else crd_design_yaml
    plain = _bound_outputs(design_yaml, kind, tmp_path, capsys, [])
    calls = _count_psd_clip(monkeypatch)
    assert _bound_outputs(design_yaml, kind, tmp_path, capsys, ["--psd-clip"]) == plain
    assert calls == []
    assert plain[0].startswith(f"{kind} bound ok:")


def test_bound_psd_clip_never_computes_the_clip(
    clustered_design_yaml, tmp_path, capsys, monkeypatch
):
    def refuse(bound):
        raise AssertionError("bound computed the psd clip")

    _replace_psd_clip(monkeypatch, refuse)
    stdout, _, _ = _bound_outputs(
        clustered_design_yaml, "aronow_samii", tmp_path, capsys, ["--psd-clip"]
    )
    assert stdout.startswith("aronow_samii bound ok:")


@pytest.mark.parametrize("kind", ["aronow_samii", "neyman"])
def test_bound_never_forms_the_weighted_form(
    kind, clustered_design_yaml, crd_design_yaml, tmp_path, capsys, monkeypatch
):
    # bound writes and certifies Dt; only the plug-in reads Dt/p
    from designest import bounds

    def refuse(Dt, p):
        raise AssertionError("bound formed the weighted form")

    design_yaml = clustered_design_yaml if kind == "aronow_samii" else crd_design_yaml
    plain = _bound_outputs(design_yaml, kind, tmp_path, capsys, [])
    monkeypatch.setattr(bounds, "_weighted_form", refuse)
    for flags in ([], ["--psd-clip"]):
        assert _bound_outputs(design_yaml, kind, tmp_path, capsys, flags) == plain


@pytest.mark.parametrize("extra", ["", "psd_clip: true\n", "bound: neyman\n"])
def test_simulate_forms_the_weighted_form_once(extra, tmp_path, monkeypatch):
    # two replication chunks read one bound; a clipped bound carries its own form
    from designest import bounds, harness

    calls, form = [], bounds._weighted_form

    def counting(Dt, p):
        calls.append(Dt.shape)
        return form(Dt, p)

    monkeypatch.setattr(bounds, "_weighted_form", counting)
    recipe = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht, wls]")
    replications = harness.REPLICATION_CHUNK + 6
    config = tmp_path / "recipe.yaml"
    config.write_text(recipe.replace("replications: 4", f"replications: {replications}") + extra)
    assert main(["simulate", "--config", str(config)]) == 0
    assert calls == [(16, 16)]


def test_estimate_psd_clip_clips_once(unequal_crd, monkeypatch):
    from designest import cli

    names = ["ht", "hajek", "wls"]
    out = unequal_crd / "clipped.json"
    calls = _count_psd_clip(monkeypatch)
    argv = ["estimate", "--design", str(unequal_crd / "design.yaml"),
            "--data", str(unequal_crd / "obs.csv"), "--covariates", str(unequal_crd / "x.csv"),
            "--estimators", ",".join(names), "--contrast=-1,1", "--psd-clip", "--out", str(out)]
    assert main(argv) == 0
    assert calls == ["aronow_samii"]
    expected = _per_row_reports(unequal_crd, names, True, True, cli.aronow_samii_bound)
    assert out.read_text() == expected


def test_simulate_psd_clip_clips_once_and_plugs_in_the_clipped_form(tmp_path, monkeypatch):
    # the reference run clips the bound as it is built, with the recipe's psd_clip off
    from designest import bounds, cli

    recipe = OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht, hajek, wls]")
    outputs = {}
    for label, clip in (("plain", "false"), ("clipped", "true")):
        config = tmp_path / f"{label}.yaml"
        config.write_text(recipe + f"psd_clip: {clip}\n")
        calls = _count_psd_clip(monkeypatch)
        csv, js = tmp_path / f"{label}.csv", tmp_path / f"{label}.json"
        assert main(["simulate", "--config", str(config), "--out", str(csv), "--json", str(js)]) == 0
        assert calls == ([] if clip == "false" else ["aronow_samii"])
        outputs[label] = (csv.read_bytes(), js.read_bytes())
        monkeypatch.undo()
    build_bound = cli.build_bound
    monkeypatch.setattr(cli, "build_bound", lambda *args: bounds.psd_clip(build_bound(*args)))
    config = tmp_path / "plain.yaml"
    csv, js = tmp_path / "reference.csv", tmp_path / "reference.json"
    assert main(["simulate", "--config", str(config), "--out", str(csv), "--json", str(js)]) == 0
    assert outputs["clipped"] == (csv.read_bytes(), js.read_bytes())
    assert outputs["clipped"][0] != outputs["plain"][0]
    assert json.loads(outputs["clipped"][1])["provenance"]["psd_clipped"] is True


def _write_every_row_recipe(tmp_path, seed, extra=""):
    """A 12-unit completely randomized design with two covariates read from
    a CSV, and every table row: the recipe of CI's parity step, on which
    some rows fail in some replications. Returns (recipe, design, x.csv)."""
    rng = np.random.default_rng(11)
    rng.permutation(12)  # CI draws its observed arms first
    x = rng.standard_normal((12, 2))
    covariates = tmp_path / "x.csv"
    covariates.write_text(
        "unit_id,x1,x2\n" + "".join(f"{i},{a:.17g},{b:.17g}\n" for i, (a, b) in enumerate(x))
    )
    design = tmp_path / "design.yaml"
    design.write_text("design: {kind: completely_randomized, n: 12, counts: [5, 7]}\n")
    recipe = tmp_path / "recipe.yaml"
    recipe.write_text(
        "design: {kind: completely_randomized, n: 12, counts: [5, 7]}\n"
        f"covariates: {{csv: {covariates}}}\n"
        "outcome: {coeffs: [0.8, -0.4], intercepts: [-0.3, 0.5], seed: 6}\n"
        f"estimators: [{', '.join(ESTIMATOR_NAMES)}]\n"
        "contrast: [-1, 1]\n"
        f"seed: {seed}\n" + extra
    )
    return recipe, design, covariates


def test_simulate_json_names_every_failure_the_same_for_any_worker_count(tmp_path, monkeypatch):
    # with no Newton step allowed, opt_logit certifies no row: every sample
    # fit and its theory column fail, and the forked workers inherit that
    from designest import model_assisted

    monkeypatch.setattr(model_assisted, "NEWTON_MAX_ITER", 0)
    recipe, _, _ = _write_every_row_recipe(tmp_path, 3, "replications: 150\n")
    outputs = []
    for workers in (1, 2, 3):  # 150 replications make 3 chunks
        csv, js = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.json"
        argv = ["simulate", "--config", str(recipe), "--out", str(csv), "--json", str(js),
                "--workers", str(workers)]
        assert main(argv) == 0
        outputs.append((csv.read_bytes(), js.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    table = json.loads(outputs[0][1])
    assert list(table["failure_reasons"]) == list(ESTIMATOR_NAMES)
    for name, reasons in table["failure_reasons"].items():
        assert sum(reasons.values()) == table["failures"][name]
    (reason,) = table["failure_reasons"]["opt_logit"]
    assert reason.startswith("OptimizationError: ")
    assert table["failures"]["opt_logit"] == 150
    assert table["theory_errors"] == {}  # a row with no fitted replication gets no theory
    assert [name for name, row in table["metrics"].items() if np.isnan(row["theo_var_times_n"])] == [
        "opt_logit"
    ]


def test_simulate_json_says_why_a_theory_column_is_nan(tmp_path, monkeypatch):
    from designest import harness

    def no_theory(name, *args):
        raise FloatingPointError(f"no population fit for {name}")

    monkeypatch.setattr(harness, "population_contrast_residual", no_theory)
    config, js = tmp_path / "sim.yaml", tmp_path / "sim.json"
    config.write_text(SIMPLE_RECIPE)
    assert main(["simulate", "--config", str(config), "--json", str(js)]) == 0
    table = json.loads(js.read_text())
    assert table["theory_errors"] == {"ht": "FloatingPointError: no population fit for ht"}
    assert table["failure_reasons"] == {"ht": {}}
    assert np.isnan(table["metrics"]["ht"]["theo_var_times_n"])


@pytest.mark.parametrize("psd_clip", [False, True])
@pytest.mark.parametrize("seed", [3, 102])  # at seed 102 two rows fail at replication 0
def test_estimate_is_replication_zero_of_simulate(tmp_path, monkeypatch, seed, psd_clip):
    from designest import harness
    from designest.designs import stream_rng

    npz = tmp_path / "moments.npz"
    extra = f"replications: 4\nmoments: {{npz: {npz}}}\npsd_clip: {str(psd_clip).lower()}\n"
    recipe, design, covariates = _write_every_row_recipe(tmp_path, seed, extra)
    assert main(["moments", "--design", str(design), "--out", str(npz)]) == 0
    chunks = []
    replication_chunk = harness._replication_chunk

    def recorded(cfg, reps):
        chunks.append((cfg, replication_chunk(cfg, reps)))
        return chunks[-1][1]

    monkeypatch.setattr(harness, "_replication_chunk", recorded)
    assert main(["simulate", "--config", str(recipe)]) == 0
    ((cfg, (values, bounds, failures)),) = chunks  # one chunk of 4 replications
    draw = cfg.design.sample(stream_rng(cfg.seed, 0)).arm_of
    y = cfg.y_full[draw * 12 + np.arange(12)]
    observed = tmp_path / "observed.csv"
    rows = "".join(f"{i},{a + 1},{v:.17g}\n" for i, (a, v) in enumerate(zip(draw, y)))
    observed.write_text("unit_id,arm,y\n" + rows)
    out = tmp_path / "estimate.json"
    argv = ["estimate", "--design", str(design), "--load-moments", str(npz),
            "--data", str(observed), "--covariates", str(covariates),
            "--estimators", ",".join(ESTIMATOR_NAMES), "--contrast=-1,1", "--out", str(out)]
    argv += ["--psd-clip"] * psd_clip
    assert main(argv) == (1 if any(rep == 0 for rep, _ in failures) else 0)
    reports = json.loads(out.read_text())
    assert [report["estimator"] for report in reports] == list(ESTIMATOR_NAMES)
    for e, report in enumerate(reports):
        if (0, e) in failures:
            assert report["error"] == failures[0, e]
            continue
        assert "error" not in report
        assert np.float64(report["contrast_value"]).tobytes() == values[0, e].tobytes()
        assert np.float64(report["varbound_times_n"]).tobytes() == bounds[0, e].tobytes()
    assert (seed == 102) == any(rep == 0 for rep, _ in failures)
