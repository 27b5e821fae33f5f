"""The navae benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the workloads one after another, each printing its own
report and result line.

Workloads are defined in perfbench/workloads.json; the metric names and units
come from BENCHMARK.json.  navae is imported from ./src, so nothing needs
installing.

Every timed job runs once, with navae's caches cold, in a process forked from a
job server (perfbench/child.py): a fresh interpreter that has imported navae
and built the workload's study but never called navae itself.  A run starts
SERVERS job servers one after another, each for an equal share of
``--seconds``; the time each takes from spawn to ready is a ``setup_s``
sample.  The first server runs an untimed warm-up job on a disjoint seed.
Study workloads run pairs of jobs, one at workers=nproc (the CLI default) and
one at workers=1, each pair on its own seed derived from ``--seed``; the CLI
workload runs its commands in turn, one command per job, on CSVs written from
``--seed``.  The end-to-end metrics are medians over the run's jobs, with every
time first taken to a reference host speed: multiplied by HOST_REF_NOMINAL_S
over the time a fixed calibration loop took in the same process just before
and after it.  The report lines give the wall-clock medians beside them.  With
``--trace 1`` the same timed jobs run, followed by one traced fresh
interpreter (perfbench/tracing.py) that gives the per-layer metrics, and, for
study workloads, one that runs the study twice to show what a warm cache
would have reported.

Outputs are checked on every run; a failed check, a failed command or a job
that fails counts as a failed operation.  Human-readable lines come first;
the last stdout line is the JSON result.  The run record, metrics and checks
are also written to .perfbench_work/<run>/result.json, and the spans of a
traced run to trace.json beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from child import files_sha256

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Job servers per run; each start is one setup_s sample.
SERVERS = 5
#: Study jobs of a run use seeds seed * SEED_STRIDE + k; the warm-up uses the last one.
SEED_STRIDE = 4096
WARMUP_REPLICATIONS = 10
WARMUP_CSV_ROWS = 2000
MAX_SEED = 1 << 40
#: Times are reported at the host speed on which child.host_ref_s takes this long.
#: On a shared host, wall times of the same job moved by up to 1.8x between runs
#: minutes apart and by 2x between jobs seconds apart; scaling each job by the
#: loop's speed, measured in the same process just before and after it, halves
#: the spread between jobs.
HOST_REF_NOMINAL_S = 0.006
#: Every process the run starts must end before this many seconds have passed.
RUN_DEADLINE_S = 170.0


def median_iqr(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def ref_loop_ms() -> float:
    """A fixed pure-Python computation; it shows host speed and is never used to normalise."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_name() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def run_record(args, workers: list) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": {
            name: os.environ.get(name, "unset (library default)")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": git_sha(),
    }


class RunFailed(Exception):
    """A job server died or missed the run's deadline; the run stops there."""


class Server:
    """One job server (child.py serve): a fresh interpreter that forks a child per task."""

    def __init__(self, run: "Run", index: int) -> None:
        self.run = run
        self.stderr = open(run.dir / f"server{index}.err", "w", encoding="utf-8")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "serve", run.args.workload],
            cwd=ROOT,
            env=run.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
            start_new_session=True,
        )
        try:
            hello = self.readline()
        except RunFailed:
            self.close()
            raise
        self.setup = {"wall": hello["ready"] - spawned, "ref": statistics.median(hello["host_ref_s"])}
        self.navae_version = hello["navae_version"]

    def readline(self) -> dict:
        remaining = self.run.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stderr.flush()
            detail = Path(self.stderr.name).read_text(encoding="utf-8")[-2000:]
            reason = "missed the run deadline" if not ready else "ended"
            raise RunFailed(f"job server {reason}: {detail.strip()}")
        return json.loads(line)

    def task(self, task: dict) -> dict:
        self.proc.stdin.write(json.dumps(task) + "\n")
        self.proc.stdin.flush()
        return self.readline()

    def close(self) -> None:
        """End the server and every job it forked, and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=max(1.0, min(10.0, self.run.deadline - time.monotonic())))
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            # a job the server forked may outlive it by a moment; wait until the group is gone
            for _ in range(100):
                try:
                    os.killpg(self.proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
        self.stderr.close()


class Run:
    """One benchmark run: its processes, checks and failure counts."""

    def __init__(self, args, workload: dict, run_dir: Path) -> None:
        self.args = args
        self.workload = workload
        self.dir = run_dir
        self.study = "study" in workload
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool]] = []
        self.errors: list[str] = []
        self.children = 0
        self.setups: list[dict] = []
        self.navae_version = None
        self.first_cycle: str | None = None
        self.job_inputs: dict[str, str] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok)))

    def job_seed(self, k: int) -> int:
        return self.args.seed * SEED_STRIDE + k

    def out_dir(self, name: str) -> str:
        self.children += 1
        out = self.dir / f"j{self.children:04d}-{name}"
        out.mkdir(parents=True)
        return str(out)

    def job(self, server: Server, task: dict) -> dict | None:
        """Run one task on a server; None if it failed."""
        self.attempted += 1
        result = server.task(dict(task, workload=self.args.workload))
        if "error" in result:
            self.failed += 1
            self.errors.append(f"{task['mode']} job: {result['error']}")
            return None
        result["wall"] = result.get("job_s")
        result["ref"] = statistics.median(result["host_ref_s"])
        return result

    def spawn(self, task: dict) -> dict | None:
        """Run child.py on one task in a fresh interpreter; None if it failed."""
        self.attempted += 1
        task = dict(task, workload=self.args.workload, out=self.out_dir(task["mode"]))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(task)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            self.failed += 1
            self.errors.append(f"{task['mode']}: timed out")
            return None
        if proc.returncode != 0:
            self.failed += 1
            self.errors.append(f"{task['mode']}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def serve(self, work) -> None:
        """Start SERVERS job servers in turn; each runs ``work(server, first, slice_end)``."""
        start = time.monotonic()
        for index in range(SERVERS):
            server = Server(self, index)
            try:
                self.setups.append(server.setup)
                self.navae_version = server.navae_version
                work(server, index == 0, start + self.args.seconds * (index + 1) / SERVERS)
            finally:
                server.close()

    # -- study workloads -------------------------------------------------------

    def study_jobs(self, worker_counts: list[int]) -> list[list[dict]]:
        """Pairs of jobs (one per worker count) on seeds of their own, for --seconds."""
        pairs: list[list[dict]] = []

        def work(server: Server, first: bool, slice_end: float) -> None:
            if first:
                self.job(server, {"mode": "study", "seed": self.job_seed(SEED_STRIDE - 1), "workers": 1,
                                  "replications": WARMUP_REPLICATIONS, "out": self.out_dir("warmup")})
            while not pairs or time.monotonic() < slice_end:
                seed = self.job_seed(len(pairs))
                pair = []
                for workers in worker_counts:
                    result = self.job(server, {"mode": "study", "seed": seed, "workers": workers,
                                               "out": self.out_dir(f"w{workers}")})
                    if result is not None:
                        pair.append(dict(result, workers=workers, seed=seed))
                pairs.append(pair)

        self.serve(work)
        return pairs

    def check_study(self, pairs: list[list[dict]]) -> None:
        methods = self.workload["study"]["methods"]
        n_grid = self.workload["study"]["n"]
        reports = [pair[0] for pair in pairs if pair]
        for index, n, expected in self.workload["expect_whole_line"]:
            self.check(
                f"{methods[index]['name']} (method {index}) whole-line share at n={n} is {expected} "
                f"on all {len(reports)} seeds",
                all(r["rows"][index * len(n_grid) + n_grid.index(n)]["whole_line_fraction"] == expected
                    for r in reports),
            )
        for index, certified in enumerate(reports[0]["certified"]):
            if not certified:
                continue
            self.check(
                f"{methods[index]['name']} (method {index}, certified) coverage >= 1-alpha-3*mc_se "
                f"in every cell on all {len(reports)} seeds",
                all(row["coverage"] >= (1.0 - row["alpha"]) - 3.0 * row["mc_se"]
                    for r in reports for row in r["rows"][index * len(n_grid):(index + 1) * len(n_grid)]),
            )
        complete = [pair for pair in pairs if len(pair) == len(pairs[0])]
        self.check(
            f"reports byte-identical across worker counts on each of {len(complete)} seeds",
            bool(complete) and all(len({r["report_sha256"] for r in pair}) == 1 for pair in complete),
        )

    # -- the CLI workload ------------------------------------------------------

    def cli_jobs(self) -> dict[str, list[dict]]:
        """The commands in turn, one per job, for --seconds; results by command label."""
        rows = {name: spec["rows"] for name, spec in self.workload["csv"].items()}
        commands = [(f"{group}:{i}", argv) for group, argvs in self.workload["commands"].items()
                    for i, argv in enumerate(argvs)]
        warmup_dir = self.dir / "warmup-inputs"
        warmup_inputs = inputs.write_csvs(warmup_dir, self.job_seed(SEED_STRIDE - 1),
                                          WARMUP_CSV_ROWS, WARMUP_CSV_ROWS)
        job_inputs = inputs.write_csvs(self.dir / "inputs", self.args.seed, rows["mean"], rows["ols"])
        results: dict[str, list[dict]] = {label: [] for label, _ in commands}
        cycle = {"k": 0, "out": None}

        def work(server: Server, first: bool, slice_end: float) -> None:
            if first:
                # the feasibility commands read no seeded input, so the warm-up leaves them out
                out = self.out_dir("warmup")
                for group in ("mean_ci", "ols_ci"):
                    for argv in self.workload["commands"][group]:
                        self.job(server, {"mode": "cli", "argv": argv, "inputs": warmup_inputs, "out": out})
            while cycle["k"] < len(commands) or time.monotonic() < slice_end:
                position = cycle["k"] % len(commands)
                if position == 0:
                    cycle["out"] = self.out_dir(f"cycle{cycle['k'] // len(commands)}")
                label, argv = commands[position]
                result = self.job(server, {"mode": "cli", "argv": argv, "inputs": job_inputs,
                                           "out": cycle["out"]})
                if result is not None:
                    results[label].append(result)
                cycle["k"] += 1
                if cycle["k"] == len(commands):
                    self.first_cycle = cycle["out"]
                    checks = self.job(server, {"mode": "check", "seed": self.args.seed, "rows": rows,
                                               "out": cycle["out"]})
                    for name, ok in (checks or {}).get("checks", {}).items():
                        self.check(name, ok)

        self.serve(work)
        self.job_inputs = job_inputs
        return results

    def check_cli(self, results: dict[str, list[dict]]) -> None:
        codes = [r["exit_code"] for runs in results.values() for r in runs]
        bad = sum(code != 0 for code in codes)
        self.attempted += len(codes)
        self.failed += bad
        self.checks.append((f"{len(codes) - bad} of {len(codes)} commands exit with code 0", bad == 0))
        self.check(
            "each command's report is byte-identical on every run of it",
            all(runs and len({r["report_sha256"] for r in runs}) == 1 for runs in results.values()),
        )


def scaled(sample: dict) -> float:
    """A wall time taken to the reference host speed, by the calibration loop timed beside it."""
    return sample["wall"] * HOST_REF_NOMINAL_S / sample["ref"]


def study_end_to_end(run: Run, pairs: list[list[dict]], n_workers: int) -> tuple[dict, list[str]]:
    jobs = [r for pair in pairs for r in pair]
    timed = {
        "job_s": [r for r in jobs if r["workers"] == n_workers],
        "job_serial_s": [r for r in jobs if r["workers"] == 1],
        "setup_s": run.setups,
    }
    metrics, lines = summarise(timed)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in jobs)
    lines.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} (median over {len(jobs)} jobs)")
    units = jobs[0]["units"]
    for rate, name, workers in (("reps_per_s", "job_s", n_workers), ("reps_per_s_serial", "job_serial_s", 1)):
        wall = units / statistics.median(r["wall"] for r in timed[name])
        lines.append(f"{rate} = {units / metrics[name]:.6g} 1/s at the reference host speed, {wall:.6g} 1/s "
                     f"wall (workers={workers}, {units} replications x methods x cells per study)")
    metrics["wall.job_serial_s"] = statistics.median(r["wall"] for r in timed["job_serial_s"])
    cpu = statistics.median(r["cpu_s"] / r["job_s"] for r in timed["job_serial_s"])
    lines.append(f"cpu/wall of the timed job at workers=1: median {cpu:.3f}")
    return metrics, lines


def cli_end_to_end(run: Run, results: dict[str, list[dict]]) -> tuple[dict, list[str]]:
    metrics, lines = summarise({"setup_s": run.setups})
    commands = {label: (statistics.median(map(scaled, runs)), median_iqr([r["wall"] for r in runs]), len(runs))
                for label, runs in results.items()}
    metrics["job_s"] = metrics["job_serial_s"] = sum(c[0] for c in commands.values())
    metrics["wall.job_serial_s"] = sum(c[1][0] for c in commands.values())
    metrics["peak_rss_mb"] = max(statistics.median(r["peak_rss_mb"] for r in runs) for runs in results.values())
    lines.append(f"job_s = job_serial_s = {metrics['job_s']:.6g}: the sum over the commands of each "
                 f"command's median, each command run as its own process; no command takes a worker count, "
                 f"so both are the same figure")
    for label, (median, (wall, q1, q3), count) in commands.items():
        lines.append(f"  command {label}: {median:.6g} s; wall median {wall:.6g} s (q1 {q1:.6g}, q3 {q3:.6g}, "
                     f"{count} runs)")
    for group in run.workload["commands"]:
        group_s = sum(c[0] for label, c in commands.items() if label.split(":")[0] == group)
        lines.append(f"{group}_s = {group_s:.6g} s (command group incl. CSV parse and report writing)")
    lines.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} (the largest of the commands' median peaks)")
    return metrics, lines


def summarise(timed: dict[str, list[dict]]) -> tuple[dict, list[str]]:
    """Medians of the timed samples, each taken to the reference host speed."""
    refs = [sample["ref"] for samples in timed.values() for sample in samples]
    ref, ref_q1, ref_q3 = median_iqr(refs)
    lines = [f"times are at the reference host speed: each wall time is multiplied by "
             f"{HOST_REF_NOMINAL_S * 1e3:g} ms over the calibration loop's median time in the same process "
             f"(over these samples: median {ref * 1e3:.4g} ms, q1 {ref_q1 * 1e3:.4g}, q3 {ref_q3 * 1e3:.4g})"]
    metrics = {}
    for name, samples in timed.items():
        metrics[name], q1, q3 = median_iqr([scaled(sample) for sample in samples])
        wall, wall_q1, wall_q3 = median_iqr([sample["wall"] for sample in samples])
        lines.append(f"{name}: {metrics[name]:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, {len(samples)} samples); "
                     f"wall median {wall:.6g} (q1 {wall_q1:.6g}, q3 {wall_q3:.6g})")
    lines.append("samples (wall s, calibration ms): " + json.dumps(
        {name: [[round(s["wall"], 6), round(s["ref"] * 1e3, 4)] for s in samples] for name, samples in timed.items()}))
    return metrics, lines


def per_layer(run: Run, timed, e2e: dict, n_workers: int, lines: list[str]) -> dict:
    trace_file = run.dir / "trace.json"
    seed = run.job_seed(0) if run.study else run.args.seed
    task = {"mode": "traced", "seed": seed, "workers": 1,
            "trace_file": str(trace_file), "probe_dir": str(run.dir / "probe-inputs")}
    if not run.study:
        task["inputs"] = run.job_inputs
    traced = run.spawn(task)
    if traced is None:
        return {}
    if run.study:
        first = timed[0][0]
        run.check("traced replay reproduces the untraced report rows", traced["rows"] == first["rows"])
        selfcheck = run.spawn({"mode": "selfcheck", "seed": seed, "workers": 1})
        if selfcheck is not None:
            cold, warm = selfcheck["cold_s"], selfcheck["warm_s"]
            lines.append(f"cold-cache self-check: one process ran the study twice at workers=1: "
                         f"cold {cold:.4g} s, warm {warm:.4g} s (warm speed-up {cold / warm:.3g}x); "
                         f"the job_serial_s wall median {e2e['wall.job_serial_s']:.4g} s comes from jobs "
                         f"that each ran the study once, cold")
    else:
        reports = sorted(Path(run.first_cycle).glob("*.csv"))
        run.check("traced replay reproduces the untraced reports byte for byte",
                  traced["report_sha256"] == files_sha256(reports))
    metrics = traced["metrics"]
    metrics["dgp_sim.parallel_eff"] = e2e["job_serial_s"] / (n_workers * e2e["job_s"])
    metrics["trace.overhead_frac"] = traced["traced_job_s"] / e2e["wall.job_serial_s"] - 1.0
    job_s = traced["traced_job_s"]
    lines.append(f"traced job at workers=1 (seed {seed}): {job_s:.6g} s; self time by span "
                 f"(share of traced wall):")
    accounted = 0.0
    for name, (count, total) in sorted(traced["self_times"].items(), key=lambda kv: -kv[1][1]):
        accounted += total
        lines.append(f"  {name:36s} {count:7d} spans {total:10.4f} s  {total / job_s:7.2%}")
    lines.append(f"  {'(outside every span)':36s} {'':13s} {job_s - accounted:10.4f} s  "
                 f"{(job_s - accounted) / job_s:7.2%}")
    whole, total = traced["mean_intervals"]
    lines.append(f"finite-sample mean intervals in the job: {whole} whole-line of {total}; "
                 f"cached-search calls in the job: {traced['cache_calls']}")
    lines.extend(f"attribution: {note}" for note in traced["notes"])
    lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "navae" / "__init__.py").is_file():
        print(f"perfbench: no navae sources at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    if args.workload != "all" and args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)} or 'all'",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < MAX_SEED:
        print(f"perfbench: seed must be in [0, 2^40), got {args.seed}", file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": name}), contract, workloads[name])
             for name in names]
    return max(codes)


def run_workload(args: argparse.Namespace, contract: dict, workload: dict) -> int:
    """One run of one workload; prints its report and, last, its JSON result line."""
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(args, workload, run_dir)
    n_workers = nproc()
    worker_counts = [n_workers, 1] if run.study else ["n/a"]
    refs = [ref_loop_ms() for _ in range(5)]
    try:
        if run.study:
            timed = run.study_jobs(worker_counts)
            if not any(timed):
                raise RunFailed("every timed job failed:\n" + "\n".join(run.errors))
            run.check_study(timed)
            e2e, lines = study_end_to_end(run, timed, n_workers)
        else:
            timed = run.cli_jobs()
            if not all(timed.values()):
                raise RunFailed("a command failed on every run:\n" + "\n".join(run.errors))
            run.check_cli(timed)
            e2e, lines = cli_end_to_end(run, timed)
        layer = per_layer(run, timed, e2e, n_workers, lines) if args.trace else {}
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in ("inputs", "warmup-inputs", "probe-inputs"):
            shutil.rmtree(run_dir / name, ignore_errors=True)
    refs += [ref_loop_ms() for _ in range(5)]
    record = run_record(args, worker_counts)
    record["job_servers"] = SERVERS
    record["host_ref_nominal_s"] = HOST_REF_NOMINAL_S
    if run.study:
        record["job_seeds"] = f"{run.job_seed(0)}..{run.job_seed(len(timed) - 1)} (seed * {SEED_STRIDE} + k)"
    record["navae"] = run.navae_version
    record["host.ref_loop_ms"] = statistics.median(refs)
    layer["host.ref_loop_ms"] = record["host.ref_loop_ms"]

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    values = layer if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        run.failed += 1
        run.errors.append(f"{len(missing)} metrics not produced, first {missing[:3]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("record: " + json.dumps(record))
    for line in lines:
        print(line)
    for name, ok in run.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    for error in run.errors:
        print(f"error: {error}")
    print(f"fail_frac = {run.failed / run.attempted:.6g} ({run.failed} failed of {run.attempted} "
          f"operations: jobs, commands and checks)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "checks": run.checks, "errors": run.errors,
                   "lines": lines}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
