import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import designest
from designest.cli import main
from designest.harness import ESTIMATOR_NAMES


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


@pytest.mark.parametrize(
    "optimizer, field",
    [
        ("{restarts: 0}", "restarts"),
        ("{restarts: 2.5}", "restarts"),
        ("{restarts: true}", "restarts"),
        ("{max_steps: -3}", "max_steps"),
        ("{max_steps: 10.0}", "max_steps"),
        ("{restart_sd: -1}", "restart_sd"),
        ("{box_half_width: 0}", "box_half_width"),
        ("{box_expand: -0.1}", "box_expand"),
        ("{step: .nan}", "step"),
    ],
)
def test_simulate_rejects_an_invalid_optimizer_value(tmp_path, capsys, optimizer, field):
    # these used to run and count every opt_logit replication as failed
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE + f"optimizer: {optimizer}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert f"optimizer {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "1.5"])
def test_simulate_rejects_a_worker_count_that_is_not_a_positive_integer(tmp_path, capsys, workers):
    # counts below 2 used to run serially without a word, and 1.5 ran as 1
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]") + f"workers: {workers}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert "workers must be an integer >= 1" in capsys.readouterr().err
    assert main(["simulate", "--config", str(config), "--workers", "1"]) == 0


def test_simulate_rejects_unknown_optimizer_keys(tmp_path, capsys):
    # a misspelled key used to end in a TypeError traceback
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE + "optimizer: {restart: 3, max_step: 5, grad_tol: 0.1}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "unknown optimizer key(s): max_step, restart;" in err


@pytest.mark.parametrize("level", ["1.5", "-0.2", "0", "1", ".nan"])
def test_simulate_rejects_a_level_outside_the_unit_interval(tmp_path, capsys, level):
    # these used to run and report coverage 0.0 for every estimator
    config = tmp_path / "sim.yaml"
    config.write_text(OPT_LOGIT_RECIPE.replace("[opt_logit]", "[ht]") + f"level: {level}\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert "level must lie strictly between 0 and 1" in capsys.readouterr().err


def test_simulate_accepts_a_valid_optimizer(tmp_path):
    config = tmp_path / "sim.yaml"
    config.write_text(
        OPT_LOGIT_RECIPE + "optimizer: {restarts: 1, max_steps: 0, restart_sd: 0, box_expand: 0}\n"
    )
    assert main(["simulate", "--config", str(config)]) == 0


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


@pytest.mark.parametrize("name", ["ht", "opt_linear", "opt_logit"])
def test_estimate_fails_on_an_observed_never_hit_cell(tmp_path, name):
    # five Monte-Carlo draws of a 10% arm leave some units' arm-2 cells at
    # pi = 0; observing one must fail every estimator (opt_linear used to
    # report NaN and exit 0, opt_logit an OptimizationError)
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
            "--estimators", name, "--contrast=-1,1", "--out", str(out)]
    assert main(argv) == 1
    (report,) = json.loads(out.read_text())
    assert report == {
        "estimator": name, "error": "ValueError: observed cell with zero inclusion probability"
    }


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
    chunk and with contrast_report's own plug-in bound."""
    from designest import bounds
    from designest.designs import AssignmentRealization, CompletelyRandomizedDesign
    from designest.harness import ReplicationChunk, estimator, preprocess_covariates
    from designest.linear import contrast_report, load_covariates_csv, load_observed_csv
    from designest.model_assisted import OptimizerConfig
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
        fit = chunk.fit(estimator(name), c, OptimizerConfig())
        if fit.errors:
            error = fit.errors[0]
            reports.append({"estimator": name, "error": f"{type(error).__name__}: {error}"})
            continue
        report = contrast_report(
            name, fit.mu[0], fit.z[0], realization, moments, bound, c, fit.diagnostics[0]
        )
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
        ("moments: {method: mc, reps: 1000.5}", "moments_reps"),
        ("moments: {method: mc, reps: true}", "moments_reps"),
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
    from designest import bounds, harness

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
    build_bound = harness.build_bound
    monkeypatch.setattr(
        harness, "build_bound", lambda *args: bounds.psd_clip(build_bound(*args))
    )
    config = tmp_path / "plain.yaml"
    csv, js = tmp_path / "reference.csv", tmp_path / "reference.json"
    assert main(["simulate", "--config", str(config), "--out", str(csv), "--json", str(js)]) == 0
    assert outputs["clipped"] == (csv.read_bytes(), js.read_bytes())
    assert outputs["clipped"][0] != outputs["plain"][0]
    assert json.loads(outputs["clipped"][1])["provenance"]["psd_clipped"] is True
