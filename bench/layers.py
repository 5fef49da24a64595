"""Per-layer metrics computed from a traced run.

PER_LAYER lists the metrics the traced run reports on every workload: each
is either a count or a time that every workload exercises, so none reads as
a constant zero. DETAIL lists finer metrics of layers that only some
workloads reach (for example enumeration or the logistic descent); they are
written to the run details, with null where the workload never calls the
layer. Every value is per measured pass.
"""

from __future__ import annotations

# name -> (unit, the end-to-end metric and workloads it should move)
PER_LAYER = {
    "designs.sample_calls": ("count", "moments_s network_mc; simulate_reps_per_s all"),
    "designs.sample_self_us": ("us", "moments_s network_mc; simulate_reps_per_s all"),
    "designs.support_points": ("count", "moments_s, peak_rss_mb cluster_exact"),
    "designs.self_s": ("s", "moments_s network_mc and cluster_exact"),
    "network.match_all_calls": ("count", "moments_s network_mc"),
    "network.self_s": ("s", "moments_s network_mc"),
    "moments.mc_draws": ("count", "moments_s network_mc"),
    "moments.self_s": ("s", "moments_s network_mc and cluster_exact"),
    "moments.eig_calls": ("count", "complexity_s all"),
    "moments.eig_s": ("s", "complexity_s network_mc, cluster_exact"),
    "moments.save_npz_s": ("s", "moments_s all"),
    "moments.load_npz_s": ("s", "bound_s, complexity_s, simulate_reps_per_s all"),
    "bounds.build_s": ("s", "bound_s all; estimate_p50_ms crd_model_assisted"),
    "bounds.certify_s": ("s", "bound_s all"),
    "bounds.self_s": ("s", "bound_s network_mc, cluster_exact"),
    "bounds.psd_clip_calls": ("count", "bound_s cluster_exact"),
    "bounds.minus_one_pairs": ("count", "must repeat exactly"),
    "linear.from_full_us": ("us", "simulate_reps_per_s all"),
    "linear.estimate_linear_calls": ("count", "simulate_reps_per_s cluster_exact"),
    "linear.estimate_linear_us": ("us", "simulate_reps_per_s cluster_exact; estimate_p50_ms crd"),
    "linear.plugin_varbound_calls": ("count", "simulate_reps_per_s network_mc"),
    "linear.plugin_varbound_us": ("us", "simulate_reps_per_s network_mc"),
    "linear.negative_plugins": ("count", "plug-in bounds below zero"),
    "linear.self_s": ("s", "simulate_reps_per_s, estimate_p50_ms all"),
    "model_assisted.fit_qmle_calls": ("count", "simulate_reps_per_s network_mc, crd"),
    "model_assisted.fit_qmle_us": ("us", "simulate_reps_per_s network_mc, crd"),
    "model_assisted.opt_gr_logit_calls": ("count", "simulate_reps_per_s crd_model_assisted"),
    "model_assisted.moment_vector_calls": ("count", "simulate_reps_per_s crd_model_assisted"),
    "model_assisted.moment_vector_calls_per_fit": ("count", "simulate_reps_per_s crd"),
    "model_assisted.self_s": ("s", "simulate_reps_per_s crd_model_assisted, cluster_exact"),
    "harness.run_simulation_self_s": ("s", "simulate_reps_per_s all"),
    "harness.theory_s": ("s", "simulate_reps_per_s all"),
    "harness.failed_reps": ("count", "failed / attempted"),
    "harness.self_s": ("s", "simulate_reps_per_s all"),
    "cli.self_s": ("s", "every stage metric"),
    "cli.moments_self_s": ("s", "moments_s"),
    "cli.bound_self_s": ("s", "bound_s"),
    "cli.complexity_self_s": ("s", "complexity_s"),
    "cli.simulate_self_s": ("s", "simulate_reps_per_s"),
    "cli.estimate_self_s": ("s", "estimate_p50_ms crd_model_assisted"),
    "trace.total_s": ("s", "traced pass wall time"),
    "trace.overhead_s": ("s", "traced minus untraced wall time of the same pass"),
    "trace.self_share": ("ratio", "layer self times over the traced pass wall time"),
}

# Metrics named for layers that only some workloads reach; null when unused.
DETAIL = (
    "designs.enumerate_s",
    "designs.sample_self_us_by_kind",
    "network.match_all_us",
    "network.validate_s",
    "moments.mc_self_s",
    "moments.exact_self_s",
    "bounds.psd_clip_s",
    "model_assisted.opt_gr_logit_s",
    "model_assisted.moment_vector_us",
    "model_assisted.qmle_gr_us",
    "model_assisted.no_harm_gr_us",
    "model_assisted.opt_gr_linear_us",
    "model_assisted.opt_i_gr_us",
    "model_assisted.population_opt_logit_s",
)

# Layer quantities the spans cannot isolate from outside the program.
NOT_MEASURABLE = {
    "harness.theory_quadratic_forms_s": "the theory columns' quadratic forms run inline in "
    "run_simulation, so they count in harness.run_simulation_self_s",
    "model_assisted.hessian_s": "opt_gr_logit's numerical Hessian is a private helper; its "
    "moment_vector calls are counted, its own arithmetic is in opt_gr_logit's self time",
}


def _count_negative(tracer, result):
    tracer.counters["negative_plugins"] += bool(result.negative)


def _minus_one_pairs(tracer, result):
    tracer.counters["minus_one_pairs"] = int(result.mask_minus1.sum())


def _support_points(tracer, result):
    # a clustered design enumerates through its cluster-level design: count
    # the outermost enumeration only
    stack = tracer._stack
    if not (stack and tracer.spans[stack[-1]].name == "designs.enumerate_support"):
        tracer.counters["support_points"] += len(result)


def _mc_draws(tracer, result):
    tracer.counters["mc_draws"] += int(result.reps)


def _failed_reps(tracer, result):
    tracer.counters["failed_reps"] += sum(result.failures.values())


RESULT_HOOKS = {
    "linear.plugin_varbound": _count_negative,
    "bounds.aronow_samii_bound": _minus_one_pairs,
    "designs.enumerate_support": _support_points,
    "moments.mc_moments": _mc_draws,
    "harness.run_simulation": _failed_reps,
}


def per_layer_metrics(tracer, passes, traced_total, overhead):
    """(metrics for the result line, details) from a tracer's spans."""
    table = tracer.summary()
    per_pass = 1.0 / passes

    def rows(prefix):
        return [row for name, row in table.items() if name == prefix or name.startswith(prefix + ":")]

    def calls(prefix):
        return sum(r["calls"] for r in rows(prefix))

    def total(prefix):
        return sum(r["total_s"] for r in rows(prefix))

    def own(prefix):
        return sum(r["self_s"] for r in rows(prefix))

    def layer_self(layer):
        return sum(r["self_s"] for name, r in table.items() if name.split(".")[0] == layer)

    def us_per_call(prefix, self_time=False):
        n = calls(prefix)
        if n == 0:
            return None
        return 1e6 * (own(prefix) if self_time else total(prefix)) / n

    def seconds(value):
        return value * per_pass

    counters = tracer.counters
    fits = calls("model_assisted.opt_gr_logit")
    values = {
        "designs.sample_calls": calls("designs.sample") * per_pass,
        "designs.sample_self_us": us_per_call("designs.sample", self_time=True),
        "designs.support_points": counters["support_points"] * per_pass,
        "designs.self_s": seconds(layer_self("designs")),
        "network.match_all_calls": calls("network.match_all") * per_pass,
        "network.self_s": seconds(layer_self("network")),
        "moments.mc_draws": counters["mc_draws"] * per_pass,
        "moments.self_s": seconds(layer_self("moments")),
        "moments.eig_calls": calls("moments.largest_eigenvalue") * per_pass,
        "moments.eig_s": seconds(total("moments.largest_eigenvalue")),
        "moments.save_npz_s": seconds(total("moments.save_npz")),
        "moments.load_npz_s": seconds(total("moments.load_npz")),
        "bounds.build_s": seconds(total("bounds.aronow_samii_bound")),
        "bounds.certify_s": seconds(total("bounds.certify_bound")),
        "bounds.self_s": seconds(layer_self("bounds")),
        "bounds.psd_clip_calls": calls("bounds.psd_clip") * per_pass,
        "bounds.minus_one_pairs": counters["minus_one_pairs"],
        "linear.from_full_us": us_per_call("linear.from_full"),
        "linear.estimate_linear_calls": calls("linear.estimate_linear") * per_pass,
        "linear.estimate_linear_us": us_per_call("linear.estimate_linear"),
        "linear.plugin_varbound_calls": calls("linear.plugin_varbound") * per_pass,
        "linear.plugin_varbound_us": us_per_call("linear.plugin_varbound"),
        "linear.negative_plugins": counters["negative_plugins"] * per_pass,
        "linear.self_s": seconds(layer_self("linear")),
        "model_assisted.fit_qmle_calls": calls("model_assisted.fit_qmle") * per_pass,
        "model_assisted.fit_qmle_us": us_per_call("model_assisted.fit_qmle"),
        "model_assisted.opt_gr_logit_calls": fits * per_pass,
        "model_assisted.moment_vector_calls": calls("model_assisted.moment_vector") * per_pass,
        "model_assisted.moment_vector_calls_per_fit":
            calls("model_assisted.moment_vector") / fits if fits else 0,
        "model_assisted.self_s": seconds(layer_self("model_assisted")),
        "harness.run_simulation_self_s": seconds(own("harness.run_simulation")),
        "harness.theory_s": seconds(total("harness.population_contrast_residual")),
        "harness.failed_reps": counters["failed_reps"] * per_pass,
        "harness.self_s": seconds(layer_self("harness")),
        "cli.self_s": seconds(own("cli.main")),
        "trace.total_s": traced_total,
        "trace.overhead_s": overhead,
        "trace.self_share": sum(r["self_s"] for r in table.values()) * per_pass / traced_total,
    }
    for command in ("moments", "bound", "complexity", "simulate", "estimate"):
        values[f"cli.{command}_self_s"] = seconds(own(f"cli.main:{command}"))

    def optional_seconds(value, prefix):
        return seconds(value) if calls(prefix) else None

    by_kind = {name.split(":", 1)[1]: 1e6 * row["self_s"] / row["calls"]
               for name, row in table.items() if name.startswith("designs.sample:")}
    detail = {
        "designs.enumerate_s": optional_seconds(total("designs.enumerate_support"),
                                                "designs.enumerate_support"),
        "designs.sample_self_us_by_kind": by_kind,
        "network.match_all_us": us_per_call("network.match_all"),
        "network.validate_s": optional_seconds(total("network.validate_on_degrees"),
                                               "network.validate_on_degrees"),
        "moments.mc_self_s": optional_seconds(own("moments.mc_moments"), "moments.mc_moments"),
        "moments.exact_self_s": optional_seconds(
            own("moments.exact_moments") + own("moments.moments_from_support"),
            "moments.exact_moments"),
        "bounds.psd_clip_s": optional_seconds(total("bounds.psd_clip"), "bounds.psd_clip"),
        "model_assisted.opt_gr_logit_s": optional_seconds(total("model_assisted.opt_gr_logit"),
                                                          "model_assisted.opt_gr_logit"),
        "model_assisted.moment_vector_us": us_per_call("model_assisted.moment_vector"),
        "model_assisted.qmle_gr_us": us_per_call("model_assisted.qmle_gr"),
        "model_assisted.no_harm_gr_us": us_per_call("model_assisted.no_harm_gr"),
        "model_assisted.opt_gr_linear_us": us_per_call("model_assisted.opt_gr_linear"),
        "model_assisted.opt_i_gr_us": us_per_call("model_assisted.opt_i_gr"),
        "model_assisted.population_opt_logit_s": optional_seconds(
            total("model_assisted.population_opt_logit"), "model_assisted.population_opt_logit"),
    }
    metrics = {name: {"value": 0 if values[name] is None else values[name], "unit": unit}
               for name, (unit, _) in PER_LAYER.items()}
    functions = {name: {"calls_per_pass": row["calls"] * per_pass,
                        "total_s_per_pass": row["total_s"] * per_pass,
                        "self_s_per_pass": row["self_s"] * per_pass}
                 for name, row in sorted(table.items())}
    return metrics, {"metrics": detail, "functions": functions, "not_measurable": NOT_MEASURABLE}


def write_spans(tracer, path):
    """All recorded spans as CSV: name, parent index, start and end seconds
    relative to the first span."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w") as fh:
        fh.write("name,parent,start_s,end_s\n")
        for span in tracer.spans:
            fh.write(f"{span.name},{span.parent},{span.start - origin:.9f},{span.end - origin:.9f}\n")
