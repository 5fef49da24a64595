"""Command-line entry points.

Subcommands: moments, complexity, bound, estimate, simulate, check. Designs
and simulation recipes are YAML files; tabular inputs and outputs are the
CSV schemas documented in the module they belong to.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np
import yaml

from .bounds import (
    aronow_samii_bound,
    build_bound,
    certify_bound,
    check_bound_kind,
    observed_block_bound,
    psd_clip,
)
from .designs import (
    AssignmentRealization,
    CompletelyRandomizedDesign,
    build_design,
    check_bool,
    check_finite,
    check_integer,
    check_keys,
)
from .harness import (
    READS_D,
    ReplicationChunk,
    SimConfig,
    check_estimators,
    estimator,
    failure_text,
    fit_rows,
    impute_potential_outcomes,
    preprocess_covariates,
    run_simulation,
)
from .linear import (
    PluginVariance,
    check_contrast,
    load_covariates_csv,
    load_observed_csv,
    plugin_bounds,
    plugin_report,
)
from .moments import (
    DesignMoments,
    check_symmetric,
    closed_form_or_exact_moments,
    design_complexity,
    exact_moments,
    has_closed_form,
    mc_moments,
)
from .network import positivity_report


# libyaml's C parser where it is installed; same safe schema either way
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(path):
    with open(path) as fh:
        return yaml.load(fh, Loader=_YAML_LOADER)


def _design_from_args(args):
    check_integer("--seed", args.seed, 0)  # comes with --design; numpy takes no negative seed
    spec = _load_yaml(args.design)
    if isinstance(spec, dict) and "design" in spec:
        spec = spec["design"]
    return build_design(spec)


def _moments(design, npz, mc, seed):
    """The design's moments: read from the .npz file npz when it is set, else
    from mc Monte-Carlo draws seeded by seed when mc is set, else exact. The
    one place a command reads a moments file or picks a route."""
    if npz:
        return DesignMoments.load_npz(npz)
    if mc is not None:
        return mc_moments(design, reps=mc, seed=seed)
    return closed_form_or_exact_moments(design)


def _add_moment_source_args(parser):
    parser.add_argument("--design", required=True, help="design YAML file")
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--exact",
        action="store_true",
        help="exact moments (default): pi and p by the design kind's exact law (closed forms "
        "for Bernoulli, completely randomized and stratified designs, the cluster-level support "
        "for clustered designs, support enumeration otherwise), and D assembled from them once",
    )
    group.add_argument("--mc", type=int, default=None, metavar="REPS", help="Monte-Carlo draws")
    group.add_argument("--load-moments", default=None, help="previously saved moments .npz")
    parser.add_argument("--seed", type=int, default=0)


def cmd_moments(args):
    design = _design_from_args(args)
    moments = _moments(design, args.load_moments, args.mc, args.seed)
    if args.out:
        moments.save_npz(args.out)
    if args.pi_csv:
        moments.pi_to_csv(args.pi_csv)
    if args.d_csv:
        moments.d_to_csv(args.d_csv)
    flagged = int(moments.zero_mask.sum() + moments.maybe_zero_mask.sum())
    print(
        f"moments computed ({moments.method}): kn={moments.kn}, "
        f"flagged cells={flagged}"
    )
    report = positivity_report(moments)
    if not report.is_clean():
        print(
            f"positivity: {report.zero_count} zero cells, "
            f"{report.small_count} cells below {report.threshold}"
        )
    return 0


def cmd_complexity(args):
    design = _design_from_args(args)
    moments = _moments(design, args.load_moments, args.mc, args.seed)
    k = design.k
    # once: every arm pair's block of a symmetric D is symmetric
    check_symmetric(moments.D)
    full = design_complexity(moments, zero_diag=args.zero_diag, checked=True)
    print(("diag-zeroed " if args.zero_diag else "") + "largest-eigenvalue measures by arm pair:")
    print("      " + "".join(f"{'arm' + str(b + 1):>11}" for b in range(k)))
    for a in range(k):
        cells = []
        for b in range(k):
            if b <= a:
                cells.append(" " * 11)
                continue
            # with two arms the one pair is the whole design
            value = full if k == 2 else design_complexity(
                moments, arms=[a, b], zero_diag=args.zero_diag, checked=True
            )
            cells.append(f"{value:>11.2f}")
        print(f"arm{a + 1:<3}" + "".join(cells))
    print(f"all arms: {full:.6g}")
    return 0


def cmd_bound(args):
    design = _design_from_args(args)
    moments = _moments(design, args.load_moments, args.mc, args.seed)
    bound = build_bound(design, moments, args.kind)
    cert = certify_bound(moments, bound)
    if args.out:
        bound.to_csv(args.out)
    if args.report:
        cert.to_json(args.report)
    status = "ok" if (cert.psd_ok and cert.identified_ok) else "FAILED"
    print(
        f"{bound.name} bound {status}: min_eig>={cert.min_eigenvalue_bound:.3g} "
        f"({cert.psd_proof}), mask_violations={cert.mask_violations}"
    )
    return 0 if status == "ok" else 1


def _check_same_units(ids, what, other_ids, other, n):
    """Raise unless the sorted unit ids read from the `what` CSV are
    other_ids, the sorted ids of the input they pair with (`other`); when
    that is a design built without an id file (other_ids None), only their
    count is checked against its n units."""
    if other_ids is None:
        if len(ids) != n:
            raise ValueError(f"the {what} CSV has {len(ids)} rows but the design has {n} units")
    elif not np.array_equal(ids, other_ids):
        only_in_one = np.setxor1d(ids, other_ids)
        raise ValueError(
            f"{what} and {other} CSVs have different unit_id sets "
            f"(in one only: {only_in_one[:5].tolist()})"
        )


def cmd_estimate(args):
    design = _design_from_args(args)
    unit_ids, arms, y = load_observed_csv(args.data)
    _check_same_units(unit_ids, "observed-data", design.unit_ids, "design group", design.n)
    if args.covariates:
        covariate_ids, raw, names = load_covariates_csv(args.covariates)
        _check_same_units(covariate_ids, "covariates", unit_ids, "observed-data", design.n)
        X = preprocess_covariates(raw, names=names)
    else:
        X = np.zeros((design.n, 0))
    bad = unit_ids[(arms < 0) | (arms >= design.k)]
    if bad.size:
        raise ValueError(f"arm outside 1..{design.k} for unit_id {bad[0]} in the observed-data CSV")
    realization = AssignmentRealization(design.n, design.k, arms)
    cells = realization.observed_cells
    names = check_estimators([name.strip() for name in args.estimators.split(",")])
    # the plug-in reads only the observed block; clipping needs the full bound,
    # and the rows of READS_D the full D
    block = not args.psd_clip and READS_D.isdisjoint(names)
    if block and args.load_moments is None and args.mc is None and has_closed_form(design):
        moments, bound = observed_block_bound(design, cells)
    else:
        moments = _moments(design, args.load_moments, args.mc, args.seed)
        bound = (
            psd_clip(aronow_samii_bound(moments))
            if args.psd_clip
            else aronow_samii_bound(moments, cells=cells)
        )
        if block:  # no row reads p or D once the observed block's bound is built
            moments = dataclasses.replace(moments, p=None, D=None)
    chunk = ReplicationChunk(realization.arm_of[None], y[None], X, moments)
    contrast = check_contrast([float(v) for v in args.contrast.split(",")], design.k)
    fits, _, raw, errors = fit_rows(chunk, names, contrast, bound)
    reports = []
    for e, (name, fit) in enumerate(zip(names, fits)):
        if (0, e) in errors:
            reports.append({"estimator": name, "error": failure_text(errors[0, e])})
            continue
        plugin = PluginVariance.of(float(raw[0, e]), design.n)
        report = plugin_report(
            name, fit.mu[0], plugin, design.n, moments, contrast, fit.diagnostics[0]
        )
        reports.append(report.to_dict())
    text = json.dumps(reports, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 1 if any("error" in report for report in reports) else 0


# (required keys, optional keys) of a simulation recipe
RECIPE_KEYS = (
    ("design", "outcome", "estimators", "contrast", "replications", "seed"),
    ("covariates", "moments", "bound", "psd_clip", "level", "workers"),
)


def cmd_simulate(args):
    recipe = check_keys(_load_yaml(args.config), "recipe", *RECIPE_KEYS)
    design = build_design(recipe["design"])
    cov = (
        check_keys(recipe["covariates"], "covariates", (("csv", "generate"),), ("topcode_columns",))
        if "covariates" in recipe
        else {}
    )
    names = None
    if "csv" in cov:
        unit_ids, raw, names = load_covariates_csv(cov["csv"])
        _check_same_units(unit_ids, "covariates", design.unit_ids, "design group", design.n)
    elif "generate" in cov:
        gen = check_keys(cov["generate"], "covariates.generate", ("p",), ("seed",))
        seed = check_integer("covariates.generate.seed", gen.get("seed", 0), 0)
        p = check_integer("covariates.generate.p", gen["p"], 0)
        raw = np.random.default_rng(seed).standard_normal((design.n, p))
    else:
        raw = None
    X = (
        preprocess_covariates(raw, topcode_columns=cov.get("topcode_columns", []), names=names)
        if raw is not None
        else np.zeros((design.n, 0))
    )
    outcome = check_keys(recipe["outcome"], "outcome", ("intercepts",), ("coeffs", "seed"))
    outcome_seed = check_integer("outcome.seed", outcome.get("seed", 0), 0)
    intercepts = outcome["intercepts"]
    if not isinstance(intercepts, list) or len(intercepts) != design.k:
        raise ValueError(
            f"outcome.intercepts must be a list of one value per arm ({design.k}), "
            f"got {intercepts!r}"
        )
    coeffs = outcome.get("coeffs", [0.0] * X.shape[1])
    if not isinstance(coeffs, list) or len(coeffs) != X.shape[1]:
        raise ValueError(
            f"outcome.coeffs must be a list of one value per covariate column ({X.shape[1]}), "
            f"got {coeffs!r}"
        )
    y_full = impute_potential_outcomes(
        X,
        check_finite("outcome.coeffs", coeffs),
        check_finite("outcome.intercepts", intercepts),
        outcome_seed,
    )
    # SimConfig owns the defaults: pass only the optional settings the recipe sets
    options = {key: recipe[key] for key in ("level", "workers") if key in recipe}
    if args.workers is not None:
        options["workers"] = args.workers
    cfg = SimConfig(
        design=design,
        y_full=y_full,
        X=X,
        estimators=recipe["estimators"],
        contrast=recipe["contrast"],
        replications=recipe["replications"],
        seed=recipe["seed"],
        **options,
    )
    # the rest of the recipe is valid: check the moments and bound keys, then compute them
    clip = check_bool("psd_clip", recipe.get("psd_clip", False))
    kind = check_bound_kind(design, recipe.get("bound", "aronow_samii"))
    spec = check_keys(
        recipe.get("moments", {}), "moments", optional=(("npz", "method"), ("npz", "reps"))
    )
    method = spec.get("method", "exact")
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown moments method {method!r}; known: exact, mc")
    if "reps" in spec and method != "mc":
        raise ValueError("moments.reps is read only with method: mc")
    reps = check_integer("moments.reps", spec.get("reps", 100_000), 1) if method == "mc" else None
    moments = _moments(design, spec.get("npz"), reps, cfg.seed + 1)
    bound = build_bound(design, moments, kind)
    bound = psd_clip(bound) if clip else bound
    table = run_simulation(dataclasses.replace(cfg, moments=moments, bound=bound))
    if args.out:
        table.to_csv(args.out)
    if args.json:
        table.to_json(args.json)
    print(table.display())
    failed = {k: v for k, v in table.failures.items() if v}
    if failed:
        print(f"failed replications excluded: {failed}")
    return 0


def cmd_check(args):
    from .moments import crd_first_order_matrix, largest_eigenvalue
    from .designs import BernoulliDesign, ClusteredDesign, StratifiedDesign, stream_rng
    from .linear import intercept_matrix

    failures = 0

    def report(label, ok):
        nonlocal failures
        print(f"[{'pass' if ok else 'FAIL'}] {label}")
        failures += 0 if ok else 1

    for n in range(2, 7):
        for n_t in range(1, n):
            exact = exact_moments(CompletelyRandomizedDesign(n, [n_t, n - n_t]))
            if np.max(np.abs(exact.D - crd_first_order_matrix(n, n_t))) > 1e-12:
                report(f"analytic two-arm matrix n={n}", False)
                break
    report("analytic two-arm design matrix vs enumeration (n <= 6)", failures == 0)

    design = CompletelyRandomizedDesign(5, [2, 3])
    table = design.enumerate_support()
    moments = exact_moments(design)
    y_full = stream_rng(123).standard_normal(10)
    # the whole support as one chunk, one row per support point
    arms, support = table.realizations, range(len(table))
    y_obs = y_full[arms * 5 + np.arange(5)]
    chunk = ReplicationChunk(arms, y_obs, np.zeros((5, 0)), moments, support)
    acc = table.probabilities @ estimator("ht")(chunk, None).mu
    truth = intercept_matrix(5, 2).T @ y_full / 5
    report("exact unbiasedness of the weighted estimator", np.max(np.abs(acc - truth)) < 1e-12)

    composed = [
        ClusteredDesign(9, [0, 1, 2, 3, 0, 1, 2, 3, 3], CompletelyRandomizedDesign(4, [1, 2, 1])),
        ClusteredDesign(
            7, [0, 1, 2, 3, 4, 0, 2], StratifiedDesign(5, [[0, 3], [1, 2, 4]], [[1, 1], [2, 1]])
        ),
        ClusteredDesign(5, [0, 1, 2, 0, 1], BernoulliDesign(3, [0.25, 0.75])),
        StratifiedDesign(7, [[0, 3, 5], [1, 2, 4, 6]], [[1, 2, 0], [2, 1, 1]]),
    ]
    agree = True
    for composed_design in composed:
        fast, oracle = closed_form_or_exact_moments(composed_design), exact_moments(composed_design)
        agree &= all(
            np.max(np.abs(getattr(fast, name) - getattr(oracle, name))) <= 1e-14
            for name in ("pi", "p", "D")
        )
        agree &= np.array_equal(fast.zero_mask, oracle.zero_mask)
        agree &= np.array_equal(fast.p == 0, oracle.p == 0)
    report("one-route exact moments (closed forms, cluster space) vs unit-level enumeration", agree)

    block_agrees = True
    crd = CompletelyRandomizedDesign(6, [2, 4])
    stratified = StratifiedDesign(7, [[0, 3, 5], [1, 2, 4, 6]], [[1, 1, 1], [2, 1, 1]])
    for oracle_design, oracle_moments in (
        (composed[0], closed_form_or_exact_moments(composed[0])),
        (crd, mc_moments(crd, reps=2000, seed=1)),
        (crd, closed_form_or_exact_moments(crd)),
        (stratified, closed_form_or_exact_moments(stratified)),
    ):
        cells = oracle_design.sample(stream_rng(7)).observed_cells
        v = stream_rng(8).standard_normal(oracle_moments.kn)[None, None]
        # the full bound, the block gathered from it, and the closed form's block
        bounds = [aronow_samii_bound(oracle_moments), aronow_samii_bound(oracle_moments, cells)]
        if oracle_moments.method == "exact" and has_closed_form(oracle_design):
            bounds.append(observed_block_bound(oracle_design, cells)[1])
        raw = [plugin_bounds(v, cells[None], b)[0, 0] for b in bounds]
        block_agrees &= all(value == raw[0] for value in raw)
    report("observed-block plug-ins (gathered, closed-form) equal the full bound's", block_agrees)

    bern = BernoulliDesign(3, [0.5, 0.5])
    m = exact_moments(bern)
    cert = certify_bound(m, aronow_samii_bound(m))
    report("general bound is valid and identified", cert.psd_ok and cert.identified_ok)
    report(
        "spectral measure equals 2 for the half-half independent design",
        abs(largest_eigenvalue(m.D) - 2.0) < 1e-8,
    )

    bern2 = BernoulliDesign(2, [0.5, 0.5])
    m2 = exact_moments(bern2)
    bound2 = aronow_samii_bound(m2)
    zc = np.array([0.0, -2.0, 2.0, 4.0])
    support = bern2.enumerate_support()
    cells = support.realizations * 2 + np.arange(2)
    v = np.broadcast_to(zc, (len(support), 1, 4))
    mean_raw = support.probabilities @ plugin_bounds(v, cells, bound2)[:, 0]
    report("plug-in bound worked example (mean 12)", abs(mean_raw - 12.0) < 1e-10)

    print(f"{failures} failure(s)")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser():
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="designest",
        description="design-based estimation for randomized experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="compute and export design moments")
    _add_moment_source_args(p)
    p.add_argument("--out", help="save moments as .npz")
    p.add_argument("--pi-csv", help="export inclusion probabilities as CSV")
    p.add_argument("--d-csv", help="export the design matrix as i,j,value CSV")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("complexity", help="largest-eigenvalue design measures")
    _add_moment_source_args(p)
    p.add_argument("--zero-diag", action="store_true", help="zero the diagonal first")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("bound", help="build and certify a variance bound")
    _add_moment_source_args(p)
    p.add_argument("--kind", choices=["aronow_samii", "neyman"], default="aronow_samii")
    p.add_argument(
        "--psd-clip",
        action="store_true",
        help="no effect here: the clip changes only the weighted form that estimate's "
        "plug-in reads, so the written and certified matrix is the same with or without it",
    )
    p.add_argument("--out", help="bound matrix CSV")
    p.add_argument("--report", help="certification report JSON")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("estimate", help="estimate contrasts on one dataset")
    _add_moment_source_args(p)
    p.add_argument("--data", required=True, help="observed-data CSV (unit_id,arm,y)")
    p.add_argument("--covariates", help="covariates CSV (unit_id,x1..xp)")
    p.add_argument(
        "--estimators", default="ht,hajek", help="comma-separated names from the estimator table"
    )
    p.add_argument("--contrast", required=True, help="comma-separated contrast vector")
    p.add_argument(
        "--psd-clip",
        action="store_true",
        help="zero the negative spectrum of the bound's weighted form before the plug-in "
        "reads it: never negative, biased upward",
    )
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="run a simulation recipe")
    p.add_argument("--config", required=True, help="simulation YAML")
    p.add_argument("--out", help="metrics CSV path")
    p.add_argument("--json", help="metrics JSON path")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run the built-in oracle suite")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
