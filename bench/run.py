"""Benchmark of the quivdeform command line on three workloads.

    python3 bench/run.py --workload cohomology --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository; the program is
taken from its `src/` directory and the shipped fixtures from
`tests/data/`.  `--workload all` (the default) runs the three workloads
one after another.

With `--trace 0` every job is its own `python -m quivdeform.cli`
process, and the jobs run one after another, so at most one core is busy
and nothing cached in one job survives into the next.  A run repeats
rounds until the next round would pass `--seconds`; a round is one pass
over the fixture jobs, one pass over the family jobs and four set-up
jobs, each group spread evenly over the round.  Times are wall times
scaled by speed samples taken while the jobs run (see `measure`).  Reported:

    setup_s      scaled time of `basis` on the 2-dimensional dual
                 numbers, median over the run
    fixtures_s   scaled time of one pass over the fixture jobs, each job
                 at its median over the run's rounds
    family_s     the same for the generated family jobs
    peak_rss_mb  largest peak resident set of any job process in a
                 round, median over the rounds

With `--trace 1` the jobs run in one child process through
`quivdeform.cli.run`, in one round of three passes (see trace.py), and
the per-layer numbers are reported instead.  Every output of every job
is checked in both modes; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
JOB_TIMEOUT = 60.0
SETUP_REPS = 4
SAMPLE_EVERY_S = 0.05  # pause between two speed samples
SAMPLE_PAD_S = 0.25  # a job's speed is that of the samples within this of it
SAMPLE_REF_S = 0.001  # a speed sample's time at the reference speed
SAMPLE_SUM = Fraction(6383057, 27720)  # the exact result of a speed sample
WORKLOADS = ("cohomology", "deform", "morita")


def job_env():
    """Environment of the program's processes: the checkout's src/ on the
    path, a fixed hash seed so that set and dict orders repeat, and byte
    code cached under src/ as an installed package has it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Runs CLI jobs as child processes and records their peak memory."""

    def __init__(self, work):
        self.work = work
        self.env = job_env()
        self.out_path = os.path.join(work, "stdout.txt")
        self.err_path = os.path.join(work, "stderr.txt")
        self.peak_kb = 0

    def __call__(self, argv):
        """(exit code, stdout, stderr) of one job."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "quivdeform.cli"] + argv,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        with open(self.out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(self.err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr


def check_all(jobs, results):
    """Check each (exit code, stdout, stderr) against its job; returns the
    list of failure lines."""
    bad = []
    for job, (rc, out, err) in zip(jobs, results):
        reason = job["check"](rc, out)
        if reason:
            tail = err.strip().splitlines()[-1:] if err.strip() else []
            bad.append("FAILED %s: %s %s" % (" ".join(job["argv"]), reason, " ".join(tail)))
    return bad


def schedule(jobs, setup):
    """One round: the fixture jobs, the family jobs and the set-up jobs,
    each group spread evenly over the round, in (phase, job) pairs.

    The speed of the shared machine drifts within seconds; spread out,
    each metric samples the whole round instead of one stretch of it.
    """
    groups = [[(j["phase"], j) for j in jobs if j["phase"] == p] for p in ("fixtures", "family")]
    groups.append([("setup", setup)] * SETUP_REPS)
    slots = [((i + 0.5) / len(g), n, item) for n, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for _, _, item in sorted(slots, key=lambda s: s[:2])]


def speed_sample():
    """Thread CPU time of a fixed piece of pure-Python work, `Fraction`
    products and sums and dict stores as the program does them.  Nothing
    of the program runs in it; it measures the speed of the core."""
    c0 = time.thread_time()
    acc, seen = Fraction(0), {}
    for i in range(1, 151):
        q = Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
        acc += q
        seen[(i % 31, i % 37)] = q
    elapsed = time.thread_time() - c0
    if acc != SAMPLE_SUM or len(seen) != 150:
        raise RuntimeError("the speed sample computed a wrong result")
    return elapsed


class SpeedSampler(threading.Thread):
    """Takes a speed sample every SAMPLE_EVERY_S seconds, on the core the
    jobs run on, while they run.

    The shared machine's speed drifts by up to a factor of two within
    seconds and over minutes, differently on each core.  A sample taken
    during a job, on its core, sees the speed the job sees; it costs the
    job about 2% of the core.  Thread CPU time leaves out the time the
    sampler waits for the core.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []  # (perf_counter at the end, seconds of the sample)
        self.stopping = threading.Event()

    def run(self):
        while not self.stopping.wait(SAMPLE_EVERY_S):
            seconds = speed_sample()
            self.samples.append((time.perf_counter(), seconds))

    def stop(self):
        time.sleep(SAMPLE_PAD_S)  # samples after the last job
        self.stopping.set()
        self.join()

    def scale(self, t0, t1):
        """SAMPLE_REF_S over the mean sample taken within SAMPLE_PAD_S of
        the interval [t0, t1]."""
        near = [c for t, c in self.samples if t0 - SAMPLE_PAD_S <= t <= t1 + SAMPLE_PAD_S]
        return SAMPLE_REF_S / statistics.mean(near)


def measure(workload, jobs, seconds, work):
    """Untraced run: whole rounds of every job, until the next round would
    end after `seconds`.

    Each job's wall time is reported scaled to one speed of the core: times
    SAMPLE_REF_S over the mean speed sample (see SpeedSampler) taken
    during the job and within SAMPLE_PAD_S of it.  That is the time the job
    would take at the speed where a sample takes SAMPLE_REF_S.
    """
    # the jobs and the speed samples share one core, so that they see one speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Runner(work)
    setup = {"argv": ["basis", os.path.join(ROOT, "tests", "data", "dual_numbers.alg")],
             "check": lambda rc, out: None if rc == 0 and out.startswith("dim A = 2\n")
             else "expected the 2-dimensional basis of the dual numbers"}
    order = schedule(jobs, setup)
    run(setup["argv"])  # compiles the package's byte code outside the timed region
    sampler = SpeedSampler()
    sampler.start()
    spans = [[] for _ in order]  # (start, end) of each scheduled job, one per round
    peak_mb = []
    failures, attempted, rounds = [], 0, 0
    start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            run.peak_kb = 0
            results = []
            for k, (_, job) in enumerate(order):
                t0 = time.perf_counter()
                results.append(run(job["argv"]))
                spans[k].append((t0, time.perf_counter()))
            failures += check_all([job for _, job in order], results)
            attempted += len(order)
            rounds += 1
            peak_mb.append(run.peak_kb / 1024.0)
            round_s = time.perf_counter() - round_start
            print("%s round %d: %.1f s" % (workload, rounds, round_s), flush=True)
            if time.perf_counter() - start + round_s > seconds:
                break
    finally:
        sampler.stop()
    raw = [[t1 - t0 for t0, t1 in job] for job in spans]
    scaled = [[(t1 - t0) * sampler.scale(t0, t1) for t0, t1 in job] for job in spans]
    print("%s: %d speed samples, median %.6f s" % (
        workload, len(sampler.samples), statistics.median(c for _, c in sampler.samples)))

    def summary(of):
        """setup: median of every set-up job; a pass: each job at its median."""
        setup_s = statistics.median([x for (p, _), t in zip(order, of) if p == "setup" for x in t])
        return setup_s, *(sum(statistics.median(t) for (p, _), t in zip(order, of) if p == phase)
                          for phase in ("fixtures", "family"))

    print("%s raw: setup %.4f s, fixtures %.3f s, family %.3f s" % ((workload,) + summary(raw)))
    setup_s, fixtures_s, family_s = summary(scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "fixtures_s": (fixtures_s, "s"),
        "family_s": (family_s, "s"),
        "peak_rss_mb": (statistics.median(peak_mb), "MB"),
    }
    return attempted, failures, metrics


def traced(jobs, work):
    """Traced run: one child process runs every job in process, three times
    (untraced, traced, counting field operations); see trace.py."""
    spec = os.path.join(work, "jobs.json")
    result = os.path.join(work, "trace.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump([j["argv"] for j in jobs], fh)
    env = job_env()
    subprocess.run([sys.executable, os.path.join(HERE, "trace.py"), spec, result],
                   env=env, cwd=ROOT, check=True, timeout=170)
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    failures = []
    for outputs in data["outputs"].values():
        failures += check_all(jobs, outputs)
    attempted = 3 * len(jobs)
    return attempted, failures, {k: (v, u) for k, (v, u) in data["metrics"].items()}


def run_workload(workload, seed, seconds, trace):
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (workload, seed, os.getpid()))
    try:
        jobs = gen.make_jobs(workload, seed, ROOT, work)
        if trace:
            attempted, failures, metrics = traced(jobs, work)
        else:
            attempted, failures, metrics = measure(workload, jobs, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    for line in failures:
        print(line)
    print("%s: %d jobs attempted, %d failed" % (workload, attempted, len(failures)))
    for name, (value, unit) in metrics.items():
        print("%s %s = %.6g %s" % (workload, name, value, unit))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    for needed in (os.path.join("src", "quivdeform", "cli.py"),
                   os.path.join("tests", "data", "dual_numbers.alg")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print("error: %s is missing; run the benchmark inside a checkout of "
                  "the repository" % needed, file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
