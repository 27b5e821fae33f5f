"""Traced run of one workload: spans around every call the benchmark makes into a navae layer.

The traced job repeats the workload's untraced job serially, calling the public
layer functions one by one in the order the program calls them, and records a
span (name, start, end, parent, replication id, source) around each call.
Spans stay in memory and are written to a JSON file at the end.  Per-call
metrics are medians of span durations.  A per-call metric whose layer the
job does not call is measured by a probe afterwards, on fresh seeded inputs
(span source ``probe``); job spans always take precedence.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from navae import (
    OPTIMIZED,
    BerryEsseen,
    ConfidenceInterval,
    Design,
    FeasibilityError,
    KnownVariance,
    MeanCiConfig,
    OlsBounds,
    OlsTuning,
    OptimizedRule,
    PlugIn,
    Sample,
    SymMatrix,
    UnknownVariance,
    alpha_min,
    ci_asymp,
    ci_clt,
    ci_edg,
    ci_known_variance,
    ci_student,
    ci_unknown_variance,
    cholesky,
    delta_of,
    feasible_a_interval,
    n_zero,
    ols_fit,
    optimize_a,
    parse_rule,
    psd_sqrt,
    pseudo_inverse,
    resolve_bounds,
    sample_kurtosis,
    std_normal_cdf,
    std_normal_quantile,
    sym_eigen,
)
from navae import dgp_sim
from navae.cli import load_mean_csv, load_ols_csv
from navae.dgp_sim import ExponentialMean, GumbelHeteroLinear, run_coverage_study, substream
from navae.report import ReportRow, row_as_dict, write_report, write_summary

import inputs

#: Offset that keeps probe seeds disjoint from workload and warm-up seeds.
PROBE_SEED_OFFSET = 2 << 40

ATTRIBUTION_NOTES = (
    "ols_ci.plug_in_bounds resolves the plug-in tags once and hands the resolved bounds "
    "to ci_edg(fit=...), so ci_edg neither refits nor re-resolves: the fit and the "
    "plug-in cost move out of ci_edg's span, they are not extra work.",
    "n_zero is called before ci_edg with the same key, so ci_edg's own n_zero lookup is "
    "a cache hit: the n_zero cost moves into the ols_ci.n_zero_* span.",
    "optimize_a is called before ci_unknown_variance(a=optimized), so the interval's "
    "own search is a cache hit: the search cost moves into mean_ci.optimize_a_*.  When "
    "optimize_a finds no feasible a the interval is the whole line, as the program "
    "returns it, and ci_unknown_variance is not called (a failed search is not cached).",
    "ci_asymp(fit=...) receives the fit from the ols_ci.ols_fit span.",
)

#: metric -> (span name, scale from seconds)
SPAN_MEDIANS = {
    "dgp_sim.substream_us": ("dgp_sim.substream", 1e6),
    "dgp_sim.draw_us": ("dgp_sim.draw", 1e6),
    "mean_ci.ci_clt_us": ("mean_ci.ci_clt", 1e6),
    "mean_ci.ci_student_us": ("mean_ci.ci_student", 1e6),
    "mean_ci.ci_known_variance_us": ("mean_ci.ci_known_variance", 1e6),
    "mean_ci.ci_unknown_variance_us": ("mean_ci.ci_unknown_variance", 1e6),
    "mean_ci.ci_unknown_variance_opt_us": ("mean_ci.ci_unknown_variance_opt", 1e6),
    "mean_ci.sample_kurtosis_us": ("mean_ci.sample_kurtosis", 1e6),
    "mean_ci.feasible_a_interval_us": ("mean_ci.feasible_a_interval", 1e6),
    "mean_ci.optimize_a_cold_us": ("mean_ci.optimize_a_cold", 1e6),
    "mean_ci.optimize_a_warm_us": ("mean_ci.optimize_a_warm", 1e6),
    "mean_ci.alpha_min_opt_us": ("mean_ci.alpha_min_opt", 1e6),
    "ols_ci.ols_fit_us": ("ols_ci.ols_fit", 1e6),
    "ols_ci.plug_in_bounds_us": ("ols_ci.plug_in_bounds", 1e6),
    "ols_ci.ci_edg_us": ("ols_ci.ci_edg", 1e6),
    "ols_ci.ci_asymp_us": ("ols_ci.ci_asymp", 1e6),
    "ols_ci.ols_fit_large_ms": ("ols_ci.ols_fit_large", 1e3),
    "ols_ci.n_zero_hard_s": ("ols_ci.n_zero_hard_cold", 1.0),
    "cli.load_mean_csv_s": ("cli.load_mean_csv", 1.0),
    "cli.load_ols_csv_s": ("cli.load_ols_csv", 1.0),
    "report.write_ms": ("report.write", 1e3),
}

#: metric -> (span name, quantile)
SPAN_QUANTILES = {
    "ols_ci.n_zero_cold_us_p50": ("ols_ci.n_zero_cold", 0.5),
    "ols_ci.n_zero_cold_us_p90": ("ols_ci.n_zero_cold", 0.9),
}


class Tracer:
    """Spans as (name, start, end, parent index, replication id, source)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.parent: int | None = None
        self.rep = None
        self.source = "job"
        self.scope_names: set[str] = set()

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.parent, self.rep, self.source))

    @contextmanager
    def scope(self, name: str, rep=None):
        self.scope_names.add(name)
        index = len(self.spans)
        self.spans.append(None)
        outer = (self.parent, self.rep)
        self.parent, self.rep = index, rep
        start = time.perf_counter()
        try:
            yield
        finally:
            self.parent, self.rep = outer
            self.spans[index] = (name, start, time.perf_counter(), outer[0], rep, self.source)

    def durations(self, name: str) -> list[float]:
        """Durations of spans called ``name``, from the job if it made any, else from probes."""
        by_source = {"job": [], "probe": []}
        for span in self.spans:
            if span is not None and span[0] == name:
                by_source[span[5]].append(span[2] - span[1])
        return by_source["job"] or by_source["probe"]

    def self_times(self, source: str) -> dict[str, list]:
        """name -> [count, total self time]; self time excludes the time of child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, list] = {}
        for index, (name, start, end, _, _, src) in enumerate(self.spans):
            if src == source:
                entry = table.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += end - start - child_time[index]
        return table

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "replication", "source"],
                    "spans": [list(span) for span in self.spans],
                },
                fh,
            )


@dataclasses.dataclass
class CacheKeys:
    """Keys this process has passed to navae's cached searches, to tell cold calls from warm ones."""

    seen: set = dataclasses.field(default_factory=set)
    cached: set = dataclasses.field(default_factory=set)
    calls: dict = dataclasses.field(default_factory=lambda: {"optimize_a": 0, "n_zero": 0})
    repeats: dict = dataclasses.field(default_factory=lambda: {"optimize_a": 0, "n_zero": 0})

    def cached_call(self, tracer: Tracer, layer: str, fn, key: tuple, *args):
        """Call ``fn``; the span is ``<layer>_warm`` if an earlier call cached ``key``, else ``_cold``."""
        family = fn.__name__
        self.calls[family] += 1
        self.repeats[family] += key in self.seen
        self.seen.add(key)
        name = f"{layer}_warm" if key in self.cached else f"{layer}_cold"
        result = tracer.call(name, fn, *args)
        self.cached.add(key)
        return result

    def repeat_frac(self, family: str) -> float:
        return self.repeats[family] / self.calls[family] if self.calls[family] else 0.0


class StudyTrace:
    """Serial replay of run_coverage_study with a span around each layer call."""

    def __init__(self, tracer: Tracer, keys: CacheKeys) -> None:
        self.tracer = tracer
        self.keys = keys
        self.mean_intervals = 0
        self.mean_whole = 0

    def run(self, spec) -> list[dict]:

        call = self.tracer.call
        rows = []
        for method_index, method in enumerate(spec.methods):
            for n in spec.n_grid:
                records = []
                for r in range(spec.replications):
                    with self.tracer.scope("dgp_sim.replicate", rep=[method_index, n, r]):
                        stream = call("dgp_sim.substream", substream, spec.base_seed, method_index, n, r)
                        data = call("dgp_sim.draw", spec.dgp.sample, n, stream)
                        ci, amin = self.interval(method, data, spec.alpha)
                        records.append((ci.contains(spec.dgp.target), ci.whole_line, ci.width, amin))
                rows.append(aggregate(method.label, n, spec.alpha, records))
        return rows

    def kurtosis_bound(self, method, data) -> float:

        if method.kurtosis_bound is not None:
            return method.kurtosis_bound
        k = self.tracer.call("mean_ci.sample_kurtosis", sample_kurtosis, data, method.plug_in_inflation)
        return max(1.0, k)

    def interval(self, method, data, alpha):
        """The interval and alpha_min the method computes, one span per layer call."""

        call = self.tracer.call
        amin = None
        if isinstance(method, dgp_sim.CltMethod):
            ci = call("mean_ci.ci_clt", ci_clt, data, alpha)
        elif isinstance(method, dgp_sim.StudentMethod):
            ci = call("mean_ci.ci_student", ci_student, data, alpha)
        elif isinstance(method, dgp_sim.KnownVarianceMethod):
            cfg = MeanCiConfig(
                alpha=alpha,
                kurtosis_bound=method.kurtosis_bound,
                delta=method.delta,
                variance=KnownVariance(method.sigma**2),
            )
            ci = call("mean_ci.ci_known_variance", ci_known_variance, data, method.sigma, cfg)
        elif isinstance(method, dgp_sim.UnknownVarianceMethod):
            cfg = MeanCiConfig(
                alpha=alpha,
                kurtosis_bound=self.kurtosis_bound(method, data),
                delta=method.delta,
                a_rule=method.a_rule,
                variance=UnknownVariance(),
            )
            optimized = isinstance(method.a_rule, OptimizedRule)
            if not optimized:
                ci = call("mean_ci.ci_unknown_variance", ci_unknown_variance, data, cfg)
            else:
                key = (data.n, float(alpha), float(cfg.kurtosis_bound), cfg.delta)
                try:
                    self.keys.cached_call(self.tracer, "mean_ci.optimize_a", optimize_a, key, *key)
                except FeasibilityError:
                    ci = ConfidenceInterval.whole(1.0 - alpha, "unknown-variance")
                else:
                    ci = call("mean_ci.ci_unknown_variance_opt", ci_unknown_variance, data, cfg)
            if method.track_alpha_min:
                bound = self.kurtosis_bound(method, data)
                name = "mean_ci.alpha_min_opt" if optimized else "mean_ci.alpha_min"
                amin = call(name, alpha_min, data.n, bound, method.a_rule, method.delta)
        elif isinstance(method, dgp_sim.OlsAsympMethod):
            fit = call("ols_ci.ols_fit", ols_fit, data)
            ci = call("ols_ci.ci_asymp", ci_asymp, data, alpha, fit=fit)
        elif isinstance(method, dgp_sim.OlsEdgMethod):
            fit = call("ols_ci.ols_fit", ols_fit, data)
            resolved = call("ols_ci.plug_in_bounds", resolve_bounds, method.bounds, fit, data.u)
            self.traced_n_zero(alpha, method.tuning, resolved, "ols_ci.n_zero")
            ci = call("ols_ci.ci_edg", ci_edg, data, alpha, resolved, method.tuning, fit=fit)
        else:
            raise TypeError(f"no traced replay for method {method.label!r}")
        if isinstance(method, (dgp_sim.KnownVarianceMethod, dgp_sim.UnknownVarianceMethod)):
            self.count_mean_interval(ci)
        return ci, amin

    def count_mean_interval(self, ci) -> None:
        self.mean_intervals += 1
        self.mean_whole += ci.whole_line

    def traced_n_zero(self, alpha, tuning, bounds, layer):

        key = (float(alpha), tuning, float(bounds.k_reg), float(bounds.k_xi))
        return self.keys.cached_call(self.tracer, layer, n_zero, key, alpha, tuning, bounds)


def aggregate(label: str, n: int, alpha: float, records: list) -> dict:
    """The report row run_coverage_study builds from replication records, as a dict."""
    m = len(records)
    covered = sum(1 for rec in records if rec[0])
    whole = sum(1 for rec in records if rec[1])
    widths = np.array([rec[2] for rec in records if rec[2] is not None], dtype=float)
    alpha_mins = np.array([rec[3] for rec in records if rec[3] is not None], dtype=float)
    coverage = covered / m
    return {
        "method": label,
        "n": n,
        "alpha": alpha,
        "replications": m,
        "coverage": coverage,
        "mc_se": math.sqrt(coverage * (1.0 - coverage) / m),
        "mean_width": float(np.mean(widths)) if widths.size else None,
        "whole_line_fraction": whole / m,
        "mean_alpha_min": float(np.mean(alpha_mins)) if alpha_mins.size else None,
        "median_alpha_min": float(np.median(alpha_mins)) if alpha_mins.size else None,
    }


class CountingDgp:
    """Passes draws through to a DGP and counts them."""

    def __init__(self, dgp) -> None:
        self.dgp = dgp
        self.family = dgp.family
        self.target = dgp.target
        self.name = dgp.name
        self.draws = 0

    def sample(self, n, seed):
        self.draws += 1
        return self.dgp.sample(n, seed)


def write_rows(path: Path, rows: list) -> None:
    """What each CLI command writes: the CSV report and its JSON summary."""
    write_report(path, rows)
    write_summary(path.with_suffix(".json"), {"rows": [row_as_dict(r) for r in rows]})


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def traced_cli(tracer: Tracer, study: StudyTrace, task: dict, workload: dict) -> None:
    """The cli-oneshot commands, replayed with the layer functions each command calls."""
    call = tracer.call
    out = Path(task["out"])
    commands = workload["commands"]

    def emit(argv, rows):
        path = Path(flag(argv, "--output").format(out=out))
        call("report.write", write_rows, path, rows)

    def interval_row(ci, n, alpha):
        return ReportRow(
            method=ci.method,
            n=n,
            alpha=alpha,
            lower=ci.lower,
            upper=ci.upper,
            is_whole_line=ci.whole_line,
            width=ci.width,
        )

    with tracer.scope("cli.mean-ci"):
        (argv,) = commands["mean_ci"]
        alpha = float(flag(argv, "--alpha"))
        sample = call("cli.load_mean_csv", load_mean_csv, task["inputs"]["mean_csv"])
        cfg = MeanCiConfig(
            alpha=alpha,
            kurtosis_bound=float(flag(argv, "--K")),
            delta=BerryEsseen(),
            a_rule=parse_rule(flag(argv, "--a-rule")),
            variance=UnknownVariance(),
        )
        ci = call("mean_ci.ci_unknown_variance", ci_unknown_variance, sample, cfg)
        study.count_mean_interval(ci)
        emit(argv, [interval_row(ci, sample.n, alpha)])

    with tracer.scope("cli.ols-ci"):
        (argv,) = commands["ols_ci"]
        alpha = float(flag(argv, "--alpha"))
        design = call("cli.load_ols_csv", load_ols_csv, task["inputs"]["ols_csv"], True, flag(argv, "--u"))
        tuning = OlsTuning(
            omega_rule=parse_rule("n^-1/5"), a_rule=parse_rule("1+20*n^-2/5"), delta=BerryEsseen()
        )
        fit = call("ols_ci.ols_fit_large", ols_fit, design)
        resolved = call("ols_ci.plug_in_bounds", resolve_bounds, OlsBounds.all_plug_in(), fit, design.u)
        study.traced_n_zero(alpha, tuning, resolved, "ols_ci.n_zero")
        ci = call("ols_ci.ci_edg", ci_edg, design, alpha, resolved, tuning, fit=fit)
        emit(argv, [interval_row(ci, design.n, alpha)])

    with tracer.scope("cli.feasibility"):
        for argv in commands["feasibility"]:
            mode = flag(argv, "--mode")
            rows = []
            if mode == "alpha-min":
                k, rule = float(flag(argv, "--K")), parse_rule(flag(argv, "--a-rule"))
                for n in map(int, flag(argv, "--n").split(",")):
                    value = call("mean_ci.alpha_min_opt", alpha_min, n, k, rule, BerryEsseen())
                    rows.append(ReportRow(method="alpha-min", n=n, alpha_min=value))
            elif mode == "a-interval":
                k, alpha = float(flag(argv, "--K")), float(flag(argv, "--alpha"))
                for n in map(int, flag(argv, "--n").split(",")):
                    interval = call(
                        "mean_ci.feasible_a_interval", feasible_a_interval, n, alpha, k, BerryEsseen()
                    )
                    a_lower, a_upper = interval if interval is not None else (None, None)
                    rows.append(
                        ReportRow(method="a-interval", n=n, alpha=alpha, a_lower=a_lower, a_upper=a_upper)
                    )
            else:
                alpha = float(flag(argv, "--alpha"))
                tuning = OlsTuning(
                    omega_rule=parse_rule("n^-1/5"),
                    a_rule=parse_rule(flag(argv, "--a-rule")),
                    delta=BerryEsseen(),
                )
                bounds = OlsBounds(
                    lambda_reg=1.0, k_reg=float(flag(argv, "--k-reg")), k_eps=1.0, k_xi=float(flag(argv, "--k-xi"))
                )
                # the slowest back-scan gets a span name of its own so it does not swamp the cold percentiles
                layer = "ols_ci.n_zero_hard" if "hard" in flag(argv, "--output") else "ols_ci.n_zero"
                value = study.traced_n_zero(alpha, tuning, bounds, layer)
                rows.append(ReportRow(method="n-zero", alpha=alpha, n_zero=value))
            emit(argv, rows)


def micro(tracer: Tracer, name: str, fn, arguments: list, batches: int = 5) -> float:
    """Median over batches of the time per call, one span per batch of calls."""
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        tracer.call(name, lambda: [fn(*a) for a in arguments])
        per_call.append((time.perf_counter() - start) / len(arguments))
    return statistics.median(per_call)


def run_probes(tracer: Tracer, keys: CacheKeys, study: StudyTrace, seed: int, probe_dir: Path) -> dict:
    """Per-call probes on fresh seeded inputs, for the span metrics the job did not produce.

    Also returns the micro-benchmarks of the scalar kernels, which the job only calls
    from inside navae and which are therefore always probed.
    """
    tracer.source = "probe"
    call = tracer.call
    probe_seed = seed + PROBE_SEED_OFFSET
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([probe_seed, 7])))

    def missing(*names: str) -> bool:
        return any(not tracer.durations(name) for name in names)

    with tracer.scope("probe"):
        if missing("dgp_sim.substream", "dgp_sim.draw"):
            for r in range(200):
                stream = call("dgp_sim.substream", substream, probe_seed, 0, 1000, r)
                call("dgp_sim.draw", ExponentialMean().sample, 1000, stream)

        sample = Sample(rng.exponential(1.0, 10_000))
        if missing("mean_ci.ci_clt", "mean_ci.ci_student", "mean_ci.ci_known_variance",
                   "mean_ci.ci_unknown_variance", "mean_ci.sample_kurtosis"):
            known = MeanCiConfig(alpha=0.1, kurtosis_bound=9.0, variance=KnownVariance(1.0))
            unknown = MeanCiConfig(alpha=0.1, kurtosis_bound=9.0, variance=UnknownVariance())
            for _ in range(100):
                call("mean_ci.ci_clt", ci_clt, sample, 0.1)
                call("mean_ci.ci_student", ci_student, sample, 0.1)
                call("mean_ci.ci_known_variance", ci_known_variance, sample, 1.0, known)
                call("mean_ci.ci_unknown_variance", ci_unknown_variance, sample, unknown)
                call("mean_ci.sample_kurtosis", sample_kurtosis, sample, 0.0)

        if missing("mean_ci.feasible_a_interval", "mean_ci.optimize_a_cold", "mean_ci.optimize_a_warm",
                   "mean_ci.ci_unknown_variance_opt", "mean_ci.alpha_min_opt"):
            # K just above 9 at n=20000 is feasible, and each draw is a key no call has used
            for k in 9.0 + rng.uniform(0.0, 1.0, 10):
                key = (sample.n, 0.1, float(k), BerryEsseen())
                call("mean_ci.feasible_a_interval", feasible_a_interval, *key)
                keys.cached_call(tracer, "mean_ci.optimize_a", optimize_a, key, *key)
                keys.cached_call(tracer, "mean_ci.optimize_a", optimize_a, key, *key)
                cfg = MeanCiConfig(alpha=0.1, kurtosis_bound=float(k), a_rule=OPTIMIZED)
                call("mean_ci.ci_unknown_variance_opt", ci_unknown_variance, sample, cfg)
                call("mean_ci.alpha_min_opt", alpha_min, sample.n, float(k), OPTIMIZED, BerryEsseen())

        tuning = OlsTuning()
        if missing("ols_ci.ols_fit", "ols_ci.plug_in_bounds", "ols_ci.n_zero_cold", "ols_ci.ci_edg",
                   "ols_ci.ci_asymp"):
            bounds = OlsBounds(lambda_reg=PlugIn(), k_reg=PlugIn(), k_eps=PlugIn(), k_xi=9.0)
            for r in range(10):
                design = GumbelHeteroLinear().sample(5000, substream(probe_seed, 1, 5000, r))
                fit = call("ols_ci.ols_fit", ols_fit, design)
                resolved = call("ols_ci.plug_in_bounds", resolve_bounds, bounds, fit, design.u)
                study.traced_n_zero(0.1, tuning, resolved, "ols_ci.n_zero")
                call("ols_ci.ci_edg", ci_edg, design, 0.1, resolved, tuning, fit=fit)
                call("ols_ci.ci_asymp", ci_asymp, design, 0.1, fit=fit)

        if missing("ols_ci.ols_fit_large"):
            y, x = inputs.ols_columns(probe_seed, 200_000)
            design = Design(x=np.column_stack([np.ones(len(y)), x]), y=y, u=np.array([0.0, 0.0, 1.0]))
            call("ols_ci.ols_fit_large", ols_fit, design)

        if missing("ols_ci.n_zero_hard_cold"):
            # the (0.01, 1, 50) back-scan; the jitter on k_xi makes the key unseen
            hard = OlsBounds(lambda_reg=1.0, k_reg=1.0, k_eps=1.0, k_xi=50.0 + float(rng.uniform(0.0, 1e-9)))
            study.traced_n_zero(0.01, tuning, hard, "ols_ci.n_zero_hard")

        if missing("cli.load_mean_csv", "cli.load_ols_csv", "report.write"):
            paths = inputs.write_csvs(probe_dir, probe_seed, 100_000, 20_000)
            call("cli.load_mean_csv", load_mean_csv, paths["mean_csv"])
            call("cli.load_ols_csv", load_ols_csv, paths["ols_csv"], True, "0,0,1")
            rows = [ReportRow(method="alpha-min", n=n, alpha_min=1.0 / n) for n in range(100, 1900, 100)]
            for i in range(10):
                call("report.write", write_rows, probe_dir / f"report{i}.csv", rows)

        ps = rng.uniform(0.5, 0.999, 5000).tolist()
        xs = rng.normal(0.0, 2.0, 5000).tolist()
        ns = rng.integers(100, 100_000, 5000).tolist()
        matrices = []
        for _ in range(200):
            a = rng.standard_normal((3, 3))
            matrices.append((SymMatrix(a @ a.T + 3.0 * np.eye(3)),))
        designs = [
            (rng.standard_normal((5000, 3)), rng.standard_normal(5000), np.array([0.0, 0.0, 1.0]))
            for _ in range(10)
        ]
        provider = BerryEsseen()
        return {
            "specialfn.quantile_ns": 1e9 * micro(tracer, "specialfn.std_normal_quantile",
                                                 std_normal_quantile, [(p,) for p in ps]),
            "specialfn.cdf_ns": 1e9 * micro(tracer, "specialfn.std_normal_cdf", std_normal_cdf,
                                            [(x,) for x in xs]),
            "edgeworth.delta_of_ns": 1e9 * micro(tracer, "edgeworth.delta_of", delta_of,
                                                 [(provider, n, 9.0) for n in ns]),
            "linalg.sym_eigen_us": 1e6 * micro(tracer, "linalg.sym_eigen", sym_eigen, matrices),
            "linalg.pseudo_inverse_us": 1e6 * micro(tracer, "linalg.pseudo_inverse", pseudo_inverse, matrices),
            "linalg.psd_sqrt_us": 1e6 * micro(tracer, "linalg.psd_sqrt", psd_sqrt, matrices),
            "linalg.cholesky_us": 1e6 * micro(tracer, "linalg.cholesky", cholesky, matrices),
            "ols_ci.design_us": 1e6 * micro(tracer, "ols_ci.Design", Design, designs),
        }


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def traced_job(task: dict, workload: dict, spec, files_sha256) -> dict:
    """Run the workload's job traced at workers=1, then the probes; return the per-layer metrics.

    ``spec`` is the workload's study, or None for the CLI workload.
    """
    tracer = Tracer()
    keys = CacheKeys()
    study = StudyTrace(tracer, keys)
    result: dict = {}
    if spec is not None:
        start = time.perf_counter()
        result["rows"] = study.run(spec)
        job_s = time.perf_counter() - start
        # counted on the real harness, after the traced pass, so its warm caches change no count
        counting = CountingDgp(spec.dgp)
        run_coverage_study(dataclasses.replace(spec, dgp=counting), workers=1)
        draws_per_rep = counting.draws / (spec.replications * len(spec.methods) * len(spec.n_grid))
    else:
        start = time.perf_counter()
        traced_cli(tracer, study, task, workload)
        job_s = time.perf_counter() - start
        result["report_sha256"] = files_sha256(Path(task["out"]).glob("*.csv"))
        draws_per_rep = 0.0

    job_self = tracer.self_times("job")
    in_layers = sum(total for name, (_, total) in job_self.items() if name not in tracer.scope_names)
    # ratios of the job alone, taken before the probes add calls of their own
    metrics = {
        "dgp_sim.draws_per_rep": draws_per_rep,
        "dgp_sim.harness_self_frac": (job_s - in_layers) / job_s,
        "mean_ci.search_key_repeat_frac": keys.repeat_frac("optimize_a"),
        "mean_ci.whole_line_frac": study.mean_whole / study.mean_intervals if study.mean_intervals else 0.0,
        "ols_ci.n_zero_key_repeat_frac": keys.repeat_frac("n_zero"),
    }
    cache_calls = dict(keys.calls)
    metrics.update(run_probes(tracer, keys, study, task["seed"], Path(task["probe_dir"])))
    for metric, (name, scale) in SPAN_MEDIANS.items():
        metrics[metric] = scale * statistics.median(tracer.durations(name))
    for metric, (name, q) in SPAN_QUANTILES.items():
        metrics[metric] = 1e6 * quantile(tracer.durations(name), q)
    tracer.dump(Path(task["trace_file"]))
    result.update(
        {
            "traced_job_s": job_s,
            "metrics": metrics,
            "self_times": job_self,
            "mean_intervals": [study.mean_whole, study.mean_intervals],
            "cache_calls": cache_calls,
            "notes": list(ATTRIBUTION_NOTES),
        }
    )
    return result
