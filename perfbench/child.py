"""The benchmark's navae processes; run.py starts them.

Two ways to run it:

    python3 child.py serve WORKLOAD     # a job server (see serve())
    python3 child.py '<task json>'      # one traced or selfcheck task in this process

A job server is a fresh interpreter that imports navae, builds the workload's
study (or nothing more, for the CLI workload), reports that it is ready and
then reads one task per stdin line.  It runs each task in a child forked from
itself, so every timed job finds navae's caches as cold as a new interpreter
would: the server itself never calls navae, and nothing a job caches outlives
the job.  For each task it writes one JSON line to stdout.  Beside each time
it reports the time of a fixed calibration loop (host_ref_s) taken in the same
process just before and after, from which run.py scales times to a host of
fixed speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent


def host_ref_s() -> float:
    """Seconds for a fixed pure-Python loop that calls no navae code: how fast the host runs now."""
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def load_workload(name: str) -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def files_sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(Path(path).name.encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def study_config(workload: dict, task: dict) -> dict:
    config = dict(workload["study"], seed=task["seed"])
    if "replications" in task:
        config["replications"] = task["replications"]
    return config


def is_certified(method) -> bool:
    """Finite-sample method whose class constants are fixed a priori and whose delta is certified."""
    if not getattr(method, "navae", False) or not method.delta.certified:
        return False
    if getattr(method, "kurtosis_bound", 0.0) is None:
        return False
    bounds = getattr(method, "bounds", None)
    return bounds is None or bounds.is_resolved


def write_study_report(path: Path, report) -> str:
    """The report `navae simulate` writes, so workers=1 and workers=nproc runs can be compared byte for byte."""
    from navae.report import ReportRow, write_report

    write_report(
        path,
        [
            ReportRow(
                method=r.method,
                n=r.n,
                alpha=r.alpha,
                coverage=r.coverage,
                mc_se=r.mc_se,
                width=r.mean_width,
                whole_line_fraction=r.whole_line_fraction,
                mean_alpha_min=r.mean_alpha_min,
                median_alpha_min=r.median_alpha_min,
                replications=r.replications,
            )
            for r in report.rows
        ],
    )
    return files_sha256([path])


def study_job(task: dict, workload: dict) -> dict:
    from navae.dgp_sim import run_coverage_study, study_from_config

    spec = study_from_config(study_config(workload, task))
    t0, c0 = time.perf_counter(), time.process_time()
    report = run_coverage_study(spec, workers=task["workers"])
    job_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    sha = write_study_report(Path(task["out"]) / "report.csv", report)
    return {
        "job_s": job_s,
        "cpu_s": cpu_s,
        "units": spec.replications * len(spec.methods) * len(spec.n_grid),
        "report_sha256": sha,
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "certified": [is_certified(m) for m in spec.methods],
    }


def cli_argv(argv: list[str], task: dict) -> list[str]:
    return [a.format(out=task["out"], **task["inputs"]) for a in argv]


def cli_job(task: dict, workload: dict) -> dict:
    """One CLI command, as one `navae ...` process would run it."""
    from navae.cli import run_command

    argv = cli_argv(task["argv"], task)
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    job_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    output = Path(argv[argv.index("--output") + 1])
    return {
        "job_s": job_s,
        "cpu_s": cpu_s,
        "exit_code": code,
        "report_sha256": files_sha256([output]) if output.exists() else None,
    }


def cli_checks(task: dict, workload: dict) -> dict:
    """Report values in task["out"] against direct library calls on the same arrays."""
    import numpy as np

    from navae import (
        BerryEsseen,
        Design,
        MeanCiConfig,
        OlsBounds,
        OlsTuning,
        Sample,
        UnknownVariance,
        alpha_min,
        ci_edg,
        ci_unknown_variance,
        parse_rule,
    )
    from navae.report import read_report

    out = Path(task["out"])
    rows = task["rows"]
    checks = {}

    (mean_row,) = read_report(out / "mean_ci.csv")
    cfg = MeanCiConfig(
        alpha=0.1,
        kurtosis_bound=9.0,
        delta=BerryEsseen(),
        a_rule=parse_rule("1+n^-0.2"),
        variance=UnknownVariance(),
    )
    ci = ci_unknown_variance(Sample(inputs.mean_values(task["seed"], rows["mean"])), cfg)
    checks["mean-ci endpoints equal ci_unknown_variance"] = (mean_row.lower, mean_row.upper) == (
        ci.lower,
        ci.upper,
    )

    (ols_row,) = read_report(out / "ols_ci.csv")
    y, x = inputs.ols_columns(task["seed"], rows["ols"])
    design = Design(x=np.column_stack([np.ones(len(y)), x]), y=y, u=np.array([0.0, 0.0, 1.0]))
    tuning = OlsTuning(
        omega_rule=parse_rule("n^-1/5"), a_rule=parse_rule("1+20*n^-2/5"), delta=BerryEsseen()
    )
    ci = ci_edg(design, 0.1, OlsBounds.all_plug_in(), tuning)
    checks["ols-ci endpoints equal ci_edg"] = (ols_row.lower, ols_row.upper) == (ci.lower, ci.upper)

    for name, expected in workload["expect_n_zero"].items():
        (row,) = read_report(out / name)
        checks[f"n_zero {name} == {expected}"] = row.n_zero == expected

    fixed_rule = parse_rule("1+n^-0.2")
    optimized = read_report(out / "alpha_min.csv")
    checks["optimized alpha_min <= fixed-rule alpha_min at every n"] = bool(optimized) and all(
        row.alpha_min <= alpha_min(row.n, 9.0, fixed_rule, BerryEsseen()) for row in optimized
    )
    return {"checks": checks}


def selfcheck_job(task: dict, workload: dict) -> dict:
    """Run the same study twice in one process: the second pass finds navae's caches warm."""
    from navae.dgp_sim import run_coverage_study, study_from_config

    spec = study_from_config(study_config(workload, task))
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        run_coverage_study(spec, workers=task["workers"])
        times.append(time.perf_counter() - t0)
    return {"cold_s": times[0], "warm_s": times[1]}


JOBS = {"study": study_job, "cli": cli_job, "check": cli_checks}


def run_forked(task: dict, workload: dict) -> dict:
    """Run one task in a forked child and return its result, or {"error": ...} if it failed."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            refs = [host_ref_s() for _ in range(3)]
            result = JOBS[task["mode"]](task, workload)
            result["peak_rss_mb"] = peak_rss_mb()
            result["host_ref_s"] = refs + [host_ref_s() for _ in range(3)]
        except BaseException:
            result, code = {"error": traceback.format_exc()[-2000:]}, 1
        with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(result))
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    result = json.loads(text) if text else {}
    if os.waitstatus_to_exitcode(status) != 0 and "error" not in result:
        result = {"error": f"job process ended with status {os.waitstatus_to_exitcode(status)}"}
    return result


def serve(workload_name: str) -> None:
    """Import navae, say when ready, then run each stdin task line in a forked child."""
    workload = load_workload(workload_name)
    import navae
    import navae.cli  # noqa: F401  (the CLI workload's entry point)
    from navae.dgp_sim import study_from_config

    if "study" in workload:
        study_from_config(study_config(workload, {"seed": 0}))
    ready = time.monotonic()
    refs = [host_ref_s() for _ in range(5)]
    print(json.dumps({"ready": ready, "host_ref_s": refs, "navae_version": navae.__version__}), flush=True)
    for line in sys.stdin:
        result = run_forked(json.loads(line), workload)
        print(json.dumps(result), flush=True)


def main() -> None:
    if sys.argv[1] == "serve":
        serve(sys.argv[2])
        return
    task = json.loads(sys.argv[1])
    workload = load_workload(task["workload"])
    import navae

    if task["mode"] == "traced":
        import tracing
        from navae.dgp_sim import study_from_config

        spec = study_from_config(study_config(workload, task)) if "study" in workload else None
        result = tracing.traced_job(task, workload, spec, files_sha256)
    else:
        result = selfcheck_job(task, workload)
    result["peak_rss_mb"] = peak_rss_mb()
    result["navae_version"] = navae.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
