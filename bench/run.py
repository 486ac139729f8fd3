"""itofourier benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload mc-legendre --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed.  ``--trace 0`` measures the end-to-end metrics with no wrappers
installed; times are scaled to a reference machine speed by a probe timed
next to every request (README.md).  ``--trace 1`` runs the workload untraced
for half the time, then the same requests again with timing wrappers on
every layer, and reports the per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

from tracing import LAYERS, TRACED, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, tail_percentile  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
# Set-up is repeated and its median reported, so one slow import does not
# decide the figure.
SETUP_REPS = 7
MAX_FAILURES_SHOWN = 20
# Every reported time is scaled to the machine speed at which the probe below
# takes PROBE_REF_S (its typical time on the 2-vCPU Xeon the benchmark was
# built on).  On shared machines the CPU speed moves by up to 1.7x within
# seconds (README.md); a probe timed next to each request cancels most of
# that.  The probe must time the machine, not work the program left running
# (BLAS threads spin for a while after a call): it waits until other threads
# of the process have used no CPU for QUIET_WINDOW_S, at most QUIET_WAIT_S.
# If they still used more than PROBE_BUSY_LIMIT of the probes' wall time, the
# run reports unscaled times instead.
PROBE_REF_S = 0.0007
PROBE_BUSY_LIMIT = 0.05
# Other threads' CPU time is brought up to date at scheduler ticks (4 ms at
# 250 Hz), so a window must span more than one tick to see a busy thread.
QUIET_WINDOW_S = 0.01
QUIET_WAIT_S = 0.5
_PROBE_TENSOR = np.random.default_rng(0).standard_normal((12, 12, 12, 12))
_PROBE_VECTOR = np.random.default_rng(1).standard_normal(12)


def _wait_until_other_threads_idle() -> None:
    deadline = time.perf_counter() + QUIET_WAIT_S
    while time.perf_counter() < deadline:
        process, thread = time.process_time(), time.thread_time()
        time.sleep(QUIET_WINDOW_S)
        if (time.process_time() - process) - (time.thread_time() - thread) < 1e-4:
            return


class Probe:
    """Times a fixed mix of the work the program does (Philox normals, a
    cumulative sum, a tensor contraction, exact summation, a Python loop)
    and records the CPU time other threads of the process used meanwhile."""

    def __init__(self):
        self.times: list[float] = []
        self.wall = self.busy = 0.0

    def __call__(self) -> float:
        """The fastest of three timings, so a cold cache after a request
        does not count."""
        _wait_until_other_threads_idle()
        wall, process, thread = time.perf_counter(), time.process_time(), time.thread_time()
        best = math.inf
        for rep in range(3):
            start = time.perf_counter()
            x = np.random.Generator(np.random.Philox(rep)).standard_normal(4096)
            np.cumsum(x)
            np.einsum("abcd,a,b,c,d->", _PROBE_TENSOR, *([_PROBE_VECTOR] * 4))
            math.fsum(x[:1000].tolist())
            counts: dict[int, int] = {}
            for j in range(2000):
                counts[j % 31] = counts.get(j % 31, 0) + j
            best = min(best, time.perf_counter() - start)
        self.wall += time.perf_counter() - wall
        self.busy += (time.process_time() - process) - (time.thread_time() - thread)
        self.times.append(best)
        return best

    def busy_frac(self) -> float:
        """CPU time of other threads during the probes over their wall time."""
        return max(self.busy, 0.0) / self.wall


def import_program() -> SimpleNamespace:
    """Fresh import of the package from the source tree: every set-up pays
    the import and starts from cold module-level caches."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "itofourier" or n.startswith("itofourier.")]:
        del sys.modules[name]
    importlib.import_module("itofourier.cli")
    return SimpleNamespace(**{layer: sys.modules[f"itofourier.{layer}"] for layer in LAYERS})


def machine(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The record printed with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": _git_commit(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace}


def _git_commit() -> str:
    """HEAD of the checkout read from .git without starting git; "unknown"
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                return next(line.split()[0] for line in fh if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run: (result object, human-readable lines)."""
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        return _run(WORKLOADS[name](seed, workdir, tiny), seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    probe = Probe()
    setups, raw_setups = [], []
    for _ in range(1 if trace else SETUP_REPS):
        before = probe()
        start = time.perf_counter()
        itf = import_program()
        workload.prepare(itf)
        elapsed = time.perf_counter() - start
        raw_setups.append(elapsed)
        setups.append(elapsed * PROBE_REF_S / ((before + probe()) / 2))

    failures: list[str] = []
    attempted = failed = 0
    probe()

    def attempt(i: int, call):
        nonlocal attempted, failed
        outcome = call(i)
        probe()
        outcome.scale = PROBE_REF_S / ((probe.times[-2] + probe.times[-1]) / 2)
        attempted += 1
        messages = workload.check(i, outcome)
        failed += bool(messages)
        failures.extend(f"request {i}: {msg}" for msg in messages)
        return outcome

    attempt(0, workload.request)  # warm-up: checked, not timed
    outcomes = []
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    while not outcomes or time.perf_counter() < deadline:
        outcomes.append(attempt(len(outcomes) + 1, workload.request))

    lines = []
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.operation("setup", workload.prepare, itf)
            traced = [attempt(i, lambda i: tracer.operation(i, workload.request, i))
                      for i in range(1, len(outcomes) + 1)]
        finally:
            tracer.uninstall()
        overhead = (sum(o.latency for o in traced) / sum(o.latency for o in outcomes)) - 1.0
        metrics = tracer.metrics(overhead)
        units = dict(per_layer_metrics())
        lines += [f"layer {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
        top = max((f"{layer}.{func}.self_s" for layer, func in TRACED), key=metrics.get)
        lines.append(f"largest self time: {top} {metrics[top]:.4f} s")
        path = os.path.join(ROOT, ".bench_out",
                            f"trace-{workload.name}-seed{workload.seed}.jsonl.gz")
        tracer.write(path, machine(workload.name, workload.seed, seconds, 1))
        lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        if probe.busy_frac() > PROBE_BUSY_LIMIT:
            lines.append(f"scaling off: other threads were busy for {probe.busy_frac():.3f} "
                         f"of the probe time")
            setups = raw_setups
            for o in outcomes:
                o.scale = 1.0
        ms = sorted(o.latency * 1e3 for o in outcomes)
        items_per_s = sum(o.items for o in outcomes) / sum(o.latency for o in outcomes)
        tail, pct = tail_percentile(ms)
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": items_per_s,
            "request_ms_p50": statistics.median(ms),
            "request_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        lines += [f"metric {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
        lines.append(f"request_ms_tail is p{pct:.1f} of {len(ms)} requests "
                     f"({outcomes[0].items} {workload.item} per request)")
        raw_ms = sorted(o.raw_latency * 1e3 for o in outcomes)
        lines.append(
            f"unscaled: setup_s {statistics.median(raw_setups):.6g}, items_per_s "
            f"{sum(o.items for o in outcomes) / sum(o.raw_latency for o in outcomes):.6g}, "
            f"request_ms_p50 {statistics.median(raw_ms):.6g}, request_ms_tail "
            f"{tail_percentile(raw_ms)[0]:.6g}; probe median "
            f"{statistics.median(probe.times) * 1e3:.4g} ms against {PROBE_REF_S * 1e3:.4g} ms, "
            f"other threads busy {probe.busy_frac():.4f} of it")
        lines += [f"metric {k} = {v:.6g} {unit}"
                  for k, v, unit in workload.report(items_per_s, outcomes)]

    messages = workload.finish()
    attempted += 1  # the run-level checks count as one more operation
    failed += bool(messages)
    failures.extend(f"run: {msg}" for msg in messages)
    lines.append(f"metric ops_failed_frac = {failed / attempted:.6g} fraction")
    lines += [f"failed: {msg}" for msg in failures[:MAX_FAILURES_SHOWN]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "itofourier", "__init__.py")):
        sys.stderr.write(f"error: no itofourier source tree at {SRC}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be > 0\n")
        return 2
    print("machine " + json.dumps(machine(args.workload, args.seed, args.seconds,
                                          args.trace), sort_keys=True))
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
