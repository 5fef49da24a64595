import pytest

import designest.cli
import layers
import tracing
from tracing import Span, Tracer, self_times

# Per-layer metrics the benchmark definition asks for, by name.
REQUESTED = (
    "designs.sample_calls", "designs.sample_self_us", "designs.enumerate_s",
    "designs.support_points", "network.match_all_calls", "network.match_all_us",
    "network.validate_s", "moments.mc_draws", "moments.mc_self_s", "moments.exact_self_s",
    "moments.eig_calls", "moments.eig_s", "moments.save_npz_s", "moments.load_npz_s",
    "bounds.build_s", "bounds.certify_s", "bounds.psd_clip_s", "bounds.minus_one_pairs",
    "linear.from_full_us", "linear.estimate_linear_calls", "linear.estimate_linear_us",
    "linear.plugin_varbound_calls", "linear.plugin_varbound_us", "linear.negative_plugins",
    "model_assisted.fit_qmle_us", "model_assisted.opt_gr_logit_s",
    "model_assisted.moment_vector_calls_per_fit", "model_assisted.moment_vector_us",
    "model_assisted.qmle_gr_us", "model_assisted.no_harm_gr_us",
    "model_assisted.opt_gr_linear_us", "model_assisted.opt_i_gr_us",
    "model_assisted.population_opt_logit_s", "harness.run_simulation_self_s",
    "harness.theory_s", "harness.failed_reps", "cli.self_s",
)


def bindings():
    """Every module attribute and class attribute of the package, by identity."""
    out = {}
    for module in tracing._package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith(tracing.PACKAGE):
                for attr, member in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = member
    return out


def assert_same_bindings(before):
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, changed[:5]


def test_self_time_of_nested_spans():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("child", 0, 1.0, 4.0),
        Span("grandchild", 1, 2.0, 3.0),
        Span("second_child", 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_of_adjacent_and_overlapping_spans():
    adjacent = [Span("p", -1, 0.0, 4.0), Span("a", 0, 0.0, 2.0), Span("b", 0, 2.0, 4.0)]
    assert self_times(adjacent) == pytest.approx([0.0, 2.0, 2.0])
    # overlapping children are covered once; a child past the parent's end is clipped
    overlapping = [
        Span("p", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 5.0),
        Span("b", 0, 3.0, 7.0),
        Span("c", 0, 9.0, 12.0),
    ]
    assert self_times(overlapping)[0] == pytest.approx(3.0)


def test_tracer_records_spans_and_removes_wrappers(tmp_path):
    design = tmp_path / "design.yaml"
    design.write_text("design: {kind: completely_randomized, n: 6, counts: [3, 3]}\n")
    original = designest.cli.closed_form_or_exact_moments
    before = bindings()
    with Tracer(on_result=layers.RESULT_HOOKS) as tracer:
        assert designest.cli.closed_form_or_exact_moments is not original
        assert designest.cli.main(["moments", "--design", str(design)]) == 0
    assert_same_bindings(before)
    names = [span.name for span in tracer.spans]
    assert names[0] == "cli.main:moments"
    assert "moments.analytic_crd_moments" in names
    assert "network.positivity_report" in names
    root = tracer.spans[0]
    assert all(s.parent >= 0 and root.start <= s.start <= s.end <= root.end for s in tracer.spans[1:])


def test_tracer_removes_wrappers_after_an_error():
    before = bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("stop")
    assert_same_bindings(before)


def test_every_requested_layer_metric_is_accounted_for():
    known = set(layers.PER_LAYER) | set(layers.DETAIL) | set(layers.NOT_MEASURABLE)
    assert [name for name in REQUESTED if name not in known] == []


def test_per_layer_metrics_cover_the_declared_list():
    tracer = Tracer()
    tracer.spans = [Span("cli.main:moments", -1, 0.0, 2.0), Span("moments.mc_moments", 0, 0.5, 1.5)]
    metrics, detail = layers.per_layer_metrics(tracer, passes=1, traced_total=2.0, overhead=0.1)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["cli.moments_self_s"]["value"] == pytest.approx(1.0)
    assert metrics["moments.self_s"]["value"] == pytest.approx(1.0)
    assert detail["metrics"]["moments.mc_self_s"] == pytest.approx(1.0)
    assert detail["metrics"]["designs.enumerate_s"] is None
    assert set(detail["metrics"]) == set(layers.DETAIL)


def test_nested_enumeration_counts_support_points_once(tmp_path):
    design = tmp_path / "design.yaml"
    design.write_text(
        "design:\n"
        "  kind: clustered\n"
        "  cluster_of: [0, 0, 1, 1, 2, 2, 3, 3]\n"
        "  cluster_design: {kind: completely_randomized, n: 4, counts: [2, 2]}\n"
    )
    with Tracer(on_result=layers.RESULT_HOOKS) as tracer:
        assert designest.cli.main(["moments", "--design", str(design), "--exact"]) == 0
    assert tracer.counters["support_points"] == 6
