"""qdata benchmark: end-to-end wall time, set-up and memory, or per-layer costs.

Usage (from the repository root)::

    python3 bench/run.py --workload pair-mc --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` over
repetitions of fresh worker processes (``worker.py``): a cold 1-thread
``qdata run`` of every scenario of the workload (``workloads.py``), warm
re-runs in the same process, and a cold run at ``--threads 2``.  The cold
block and the warm block are each rescaled to nominal machine speed by a
fixed reference workload timed on either side of it in the same process
(``at_nominal_speed``).
``--trace 1`` reports the per-layer metrics from traced runs
(``tracer.py``, ``layers.py``).  Every run checks its reports; a run that
fails a check counts in ``failed``.  The last line printed is one JSON
object; details go to ``.bench_out/``.  See README.md for definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_REPS = 3
WORKER_TIMEOUT_S = 170
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QDATA_THREADS")
# the time of ``worker.reference_s`` at nominal speed; every reported time is
# rescaled as if the reference had taken this long next to it
REF_NOMINAL_S = 0.1
# interpreter start through ``import numpy`` at nominal speed; set-up is
# rescaled by such a start made just before each worker
START_NOMINAL_S = 0.12
START_CODE = "import time, numpy; print(time.perf_counter())"


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    # workers import qdata from its bytecode cache, as an installed package
    # does, so set-up time is not recompiling the sources on every start
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def at_nominal_speed(elapsed: float, *refs: float) -> float:
    """``elapsed`` rescaled by the mean reference time measured around it."""
    return elapsed * REF_NOMINAL_S / statistics.mean(refs)


def reference_start_s() -> float:
    """Time a fresh interpreter from spawning through ``import numpy``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", START_CODE],
        cwd=ROOT,
        env=_worker_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError("reference interpreter start failed")
    return float(proc.stdout) - start


def spawn(request: dict) -> dict:
    """Run one fresh worker and rescale its times to nominal speed.

    Adds ``setup_s`` (measured from just before spawning), ``wall_s`` (the
    cold runs) and ``warm_s`` (one total per warm pass).  The cold block and
    the warm block are each scaled by the reference times on either side of
    it; set-up is scaled by a reference interpreter start made just before
    the worker's, since start-up drifts apart from compute speed.
    """
    start_ref = reference_start_s()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(request)],
        cwd=ROOT,
        env=_worker_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "worker failed")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    refs = result["ref_s"]
    result["start_ref_s"] = start_ref
    result["setup_raw_s"] = result["t_imported"] - start
    result["setup_s"] = result["setup_raw_s"] * START_NOMINAL_S / start_ref
    result["wall_s"] = at_nominal_speed(sum(result["cold_raw_s"]), *refs[:2])
    result["warm_s"] = [at_nominal_speed(t, *refs[1:3]) for t in result.get("warm_raw_s", [])]
    return result


def environment(workload: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "inherited_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def summary(values: list) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Checker:
    """Counts attempted and failed runs; a run fails if any check on it fails."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.error_entries = 0
        self.problems: list = []
        self.reference: list | None = None  # first digests seen, one per scenario

    def run(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def report(self, label: str, scenarios: list) -> None:
        """Check one run's reports: errors, frozen verdicts, and same-seed reruns."""
        if self.reference is None:
            self.reference = [s["digest"] for s in scenarios]
        for i, (entry, ref) in enumerate(zip(scenarios, self.reference)):
            problems = []
            if entry["error_count"]:
                self.error_entries += entry["error_count"]
                problems.append(f"{entry['error_count']} error entries")
            problems += workloads.frozen_verdict_problems(self.workload, i, entry["verdicts"])
            if entry["digest"] != ref:
                problems.append("report differs from the first run with this seed")
            self.run(f"{label} scenario {i}", problems)

    def reruns(self, label: str, passes: list) -> None:
        """Check warm re-runs, one run per scenario however many passes were made."""
        for i, (digests, ref) in enumerate(zip(zip(*passes), self.reference)):
            problems = [] if set(digests) == {ref} else ["report differs from the first run with this seed"]
            self.run(f"{label} scenario {i}", problems)

    def failed_worker(self, label: str, exc: Exception, scenarios: int) -> None:
        for i in range(scenarios):
            self.run(f"{label} scenario {i}", [f"worker failed: {exc}"])


def timed(workload: str, paths: dict, seed: int, seconds: float) -> tuple:
    samples: dict = {"wall_s": [], "wall_s.t2": [], "wall_s.warm": [], "setup_s": [], "peak_rss_mb": []}
    raw_fields = ("start_ref_s", "setup_raw_s", "cold_raw_s", "warm_raw_s", "ref_s")
    workers = []  # every worker's unscaled times, in order
    checker = Checker(workload)
    n = len(paths["scenarios"])
    start = time.perf_counter()
    reps = 0
    while True:
        reps += 1
        one_req = {"scenarios": paths["scenarios"], "reports": paths["t1"], "seed": seed, "threads": 1, "warm": True}
        two_req = {"scenarios": paths["scenarios"], "reports": paths["t2"], "seed": seed, "threads": 2}
        try:
            one = spawn(one_req)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            checker.failed_worker(f"rep {reps} 1-thread", exc, 2 * n)
            one = None
        try:
            two = spawn(two_req)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            checker.failed_worker(f"rep {reps} 2-thread", exc, n)
            two = None
        if one is not None:
            checker.report(f"rep {reps} 1-thread", one["scenarios"])
            checker.reruns(f"rep {reps} warm", one["warm_digests"])
            samples["wall_s"].append(one["wall_s"])
            samples["wall_s.warm"].append(statistics.median(one["warm_s"]))
            samples["peak_rss_mb"].append(one["rss_mb"])
            samples["setup_s"].append(one["setup_s"])
            workers.append({"threads": 1, **{k: one[k] for k in raw_fields}})
        if two is not None:
            checker.report(f"rep {reps} 2-thread", two["scenarios"])
            samples["wall_s.t2"].append(two["wall_s"])
            samples["setup_s"].append(two["setup_s"])
            workers.append({"threads": 2, **{k: two.get(k, []) for k in raw_fields}})
        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and elapsed + elapsed / reps > seconds:
            break
    stats = {name: summary(values) for name, values in samples.items() if values}
    one_thread = [w for w in workers if w["threads"] == 1]
    unscaled = {
        "wall_s": [sum(w["cold_raw_s"]) for w in one_thread],
        "wall_s.t2": [sum(w["cold_raw_s"]) for w in workers if w["threads"] == 2],
        "wall_s.warm": [statistics.median(w["warm_raw_s"]) for w in one_thread],
        "setup_s": [w["setup_raw_s"] for w in workers],
        "reference_s": [r for w in workers for r in w["ref_s"]],
        "reference_start_s": [w["start_ref_s"] for w in workers],
    }
    details = {
        "repetitions": reps,
        "samples": samples,
        "unscaled_medians": {name: statistics.median(values) for name, values in unscaled.items() if values},
        "workers": workers,
    }
    return stats, checker, details


def traced(workload: str, paths: dict, seed: int, seconds: float, run_dir: Path) -> tuple:
    checker = Checker(workload)
    n = len(paths["scenarios"])
    start = time.perf_counter()

    def job(label, threads, **extra):
        request = {
            "scenarios": paths["scenarios"],
            "reports": paths["t1" if threads == 1 else "t2"],
            "seed": seed,
            "threads": threads,
            **extra,
        }
        try:
            result = spawn(request)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            checker.failed_worker(label, exc, n)
            return None
        checker.report(label, result["scenarios"])
        return result

    started = time.perf_counter()
    untraced = [job("untraced 1", 1)]
    untraced_s = time.perf_counter() - started
    first = job("traced 1", 1, trace=True, spans=str(run_dir / "spans.jsonl"))
    second = job("traced 2", 1, trace=True)
    double = job("traced 2-thread", 2, trace=True)
    # more untraced baselines while another fits in the time given (at least two)
    while len(untraced) < 2 or time.perf_counter() - start + untraced_s <= seconds:
        started = time.perf_counter()
        untraced.append(job(f"untraced {len(untraced) + 1}", 1))
        untraced_s = time.perf_counter() - started
    if None in (first, second, double) or None in untraced:
        return None, checker, {}

    calls_a, calls_b = first["layers"]["calls"], second["layers"]["calls"]
    mismatched = sorted(k for k in set(calls_a) | set(calls_b) if calls_a.get(k) != calls_b.get(k))
    checker.run("1-thread call counts repeat", [f"{k}: {calls_a.get(k)} vs {calls_b.get(k)}" for k in mismatched])
    expected = workloads.closed_form_counts(workload)
    checker.run(
        "closed-form counts",
        [f"{k}: {calls_a.get(k, 0)} traced, {v} expected" for k, v in expected.items() if calls_a.get(k, 0) != v],
    )

    metrics = dict(first["layers"]["metrics"])
    metrics["detectors.calibration_dup_calls"] = double["layers"]["metrics"]["detectors.calibration_dup_calls"]
    workers = untraced + [first, second, double]
    metrics["cli.import_s"] = statistics.median(w["import_s"] for w in workers)
    metrics["trace.overhead_s"] = statistics.median(
        [first["wall_s"], second["wall_s"]]
    ) - statistics.median(w["wall_s"] for w in untraced)
    details = {
        "calls": calls_a,
        "calls_2_threads": double["layers"]["calls"],
        "spans": first["layers"]["spans"],
        "untraced_wall_s": [w["wall_s"] for w in untraced],
        "traced_wall_s": [first["wall_s"], second["wall_s"]],
        "closed_form": expected,
    }
    return metrics, checker, details


def _write_scenarios(workload: str, seed: int, run_dir: Path) -> dict:
    paths: dict = {"scenarios": [], "t1": [], "t2": []}
    for i, doc in enumerate(workloads.WORKLOADS[workload](seed)):
        path = run_dir / f"scenario-{i}.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        paths["scenarios"].append(str(path))
        paths["t1"].append(str(run_dir / f"report-{i}-t1.json"))
        paths["t2"].append(str(run_dir / f"report-{i}-t2.json"))
    return paths


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must fit in 64 unsigned bits")
    if not (ROOT / "src" / "qdata" / "__init__.py").is_file():
        print(f"bench: no qdata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    print("environment:", json.dumps(env))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    paths = _write_scenarios(args.workload, args.seed, run_dir)
    # untimed: writes the bytecode cache and warms the file cache
    subprocess.run([sys.executable, "-c", "import qdata.cli"], cwd=ROOT, env=_worker_env(), check=True,
                   timeout=WORKER_TIMEOUT_S)

    if args.trace:
        values, checker, details = traced(args.workload, paths, args.seed, args.seconds, run_dir)
        wanted = spec["per_layer"]
    else:
        stats, checker, details = timed(args.workload, paths, args.seed, args.seconds)
        values = {name: s["median"] for name, s in stats.items()}
        details["stats"] = stats
        wanted = spec["end_to_end"]
    if values is None or any(m["name"] not in values for m in wanted):
        print("bench: no measurement for some metrics; problems:", *checker.problems, sep="\n  ", file=sys.stderr)
        return 1

    failed_fraction = checker.failed / checker.attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        extra = ""
        if not args.trace:
            s = details["stats"][name]
            extra = f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
            if name in details["unscaled_medians"]:
                extra += f"  unscaled median {details['unscaled_medians'][name]:.6g}"
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{'failed_fraction':34s} {failed_fraction:.6g} 1  ({checker.failed} of {checker.attempted} runs, "
          f"{checker.error_entries} report error entries)")
    for problem in checker.problems:
        print(f"check failed: {problem}")

    record = {
        "environment": env,
        "metrics": metrics,
        "failed_fraction": failed_fraction,
        "problems": checker.problems,
        "details": details,
    }
    (OUT / f"{run_dir.name}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    for path in paths["t1"] + paths["t2"]:
        Path(path).unlink(missing_ok=True)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
