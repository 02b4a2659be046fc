"""One fresh-interpreter run of a workload, started by ``run.py``.

Usage: ``python3 bench/worker.py '<json request>'`` with ``src`` on
PYTHONPATH.  The request names the scenario files, the seed, the thread
count, and whether to re-run warm or trace.  The worker imports
qdata before anything else, so the parent can time interpreter start
through import from its own ``perf_counter`` (a system-wide monotonic clock
on Linux).  It times a fixed reference workload after the import, after the
cold runs and after the warm re-runs, so the parent can rescale each timed
block to a nominal machine speed by the reference times on either side of
it.  It prints one JSON line with its raw measurements.
"""

import time

_T_IMPORT = time.perf_counter()
import qdata.cli  # noqa: E402  (the import being timed)

T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402  (already loaded by qdata)

# warm re-runs repeat until they add up to this much, so a short warm run
# is timed over several repeats rather than once
WARM_MIN_S = 1.0


def reference_s() -> float:
    """Time a fixed mix of the kinds of work qdata does, touching nothing of qdata.

    Interpreter arithmetic, 4x4 real matrix products with ``eigvalsh``, and
    random complex 4x4 Hermitian ``eigh`` with a small dict per step.  Its
    time tracks how fast the host runs this process at the moment, which
    on a shared machine moves by up to 1.5x from one ten-second window to
    the next; it takes about 100 ms at full speed.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(300_000):
        total += i * i % 7
    eye = numpy.eye(4)
    a = numpy.full((4, 4), 0.1) + 0.4 * eye
    for _ in range(4_000):
        a = (a @ a) * 0.5 + 0.25 * eye
        total += numpy.linalg.eigvalsh(a)[0]
    rng = numpy.random.default_rng(1)
    for k in range(1_500):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, v = numpy.linalg.eigh(m @ m.conj().T)
        entry = {"k": k, "w": w.tolist()}
        total += entry["w"][0] + abs(v[0, 0])
    elapsed = time.perf_counter() - start
    if not numpy.isfinite(total):
        raise RuntimeError("reference workload diverged")
    return elapsed


def reference_on(cpus: list) -> float:
    """Mean ``reference_s`` over ``cpus``, pinned to each in turn.

    The CPUs of a shared host slow down independently, so a run that may use
    any of them is compared with the mean speed of all of them.  Leaves the
    process allowed on all of ``cpus``.
    """
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(reference_s())
    os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _normalized(report: dict) -> str:
    """The report without its provenance timestamp, in the writer's layout."""
    report = json.loads(json.dumps(report))
    report["provenance"].pop("timestamp", None)
    return json.dumps(report, sort_keys=True, indent=2)


def _digest(report: dict) -> str:
    return hashlib.sha256(_normalized(report).encode()).hexdigest()


def _verdicts(report: dict) -> list:
    return [
        (
            cell["params"],
            [(r["detector"], r.get("verdict", {}).get("verdict", "error")) for r in cell["results"]],
        )
        for cell in report["cells"]
    ]


def _cli_run(path: str, out: str, seed: int, threads: int) -> float:
    argv = ["run", path, "--seed", str(seed), "--threads", str(threads), "--out", out]
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = qdata.cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"qdata run {path} exited with {code}")
    return elapsed


def run(request: dict) -> dict:
    seed, threads = request["seed"], request["threads"]
    # a 1-thread run stays on one CPU, so the references around it measure
    # the CPU it runs on; a threaded run may use every CPU
    cpus = sorted(os.sched_getaffinity(0))
    if threads == 1:
        cpus = cpus[:1]
    tracer = None
    if request.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    reference_s()  # untimed: the first call in a fresh process pays one-off set-up
    refs = [reference_on(cpus)]
    cold = []
    scenarios = []
    for path, out in zip(request["scenarios"], request["reports"]):
        cold.append(_cli_run(path, out, seed, threads))
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        scenarios.append(
            {
                "digest": _digest(report),
                "error_count": report["summary"]["error_count"],
                "verdicts": _verdicts(report),
            }
        )
    refs.append(reference_on(cpus))
    # ref_s[0] and ref_s[1] bracket the cold runs, ref_s[1] and ref_s[2] the warm passes
    result = {"t_imported": T_IMPORTED, "import_s": T_IMPORTED - _T_IMPORT, "cold_raw_s": cold, "ref_s": refs}
    if request.get("warm"):
        parsed = [qdata.cli.parse_scenario(path) for path in request["scenarios"]]
        result["warm_raw_s"], result["warm_digests"] = [], []
        while sum(result["warm_raw_s"]) < WARM_MIN_S:
            elapsed, digests = 0.0, []
            for scenario in parsed:
                start = time.perf_counter()
                report = qdata.cli.run_scenario(scenario, threads=threads, seed=seed)
                elapsed += time.perf_counter() - start
                digests.append(_digest(report))
            result["warm_raw_s"].append(elapsed)
            result["warm_digests"].append(digests)
        refs.append(reference_on(cpus))
    if tracer is not None:
        from layers import summarize

        result["layers"] = summarize(tracer, request["reports"])
        if request.get("spans"):
            tracer.write(request["spans"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["scenarios"] = scenarios
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
