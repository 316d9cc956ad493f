#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload heat_ensemble --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` repeats set-up and the timed pass until ``--seconds`` of
passes are used, and prints the end-to-end metrics (medians over the
groups of set-ups made before each pass and over the passes).
``--trace 1`` times untraced passes for half the budget and traced
passes for the other half, and prints the per-layer metrics.  Every answer is checked from outside in either mode.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is a summary with the seed, the environment
fingerprint and the failure fraction.  Result and span files go to
``perfbench/out/``.

BLAS and OpenMP thread counts are pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
#: wall-clock limit of one run; what has not finished by then has failed
RUN_LIMIT_S = 160.0


def pin_environment() -> None:
    """Pin every BLAS thread pool to one thread before numpy loads."""
    if "numpy" in sys.modules:
        unpinned = {k: os.environ.get(k) for k, v in PINNED_THREADS.items()
                    if os.environ.get(k) != v}
        if unpinned:
            raise SystemExit(
                f"perfbench: numpy was imported before the thread pin "
                f"({unpinned}); run perfbench/run.py as a script")
    os.environ.update(PINNED_THREADS)


def environment() -> dict:
    """Fingerprint of what the numbers depend on."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
            "nproc": os.cpu_count()}


class RunTimeout(BaseException):
    """The run's wall-clock limit passed (not an ``Exception``, so library
    code that catches ``Exception`` cannot swallow it)."""


@contextmanager
def time_limit(deadline: float):
    """Raise :class:`RunTimeout` in the main thread at ``deadline``."""
    def _expire(signum, frame):
        raise RunTimeout

    previous = signal.signal(signal.SIGALRM, _expire)
    remaining = max(deadline - time.perf_counter(), 1e-3)
    # re-fire every half second in case one alarm lands somewhere that
    # cannot unwind (inside a ``finally`` already handling one)
    signal.setitimer(signal.ITIMER_REAL, remaining, 0.5)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    vals = sorted(values)
    i = min(len(vals) - 1, max(math.ceil(q * len(vals)) - 1, 0))
    return vals[i]


class Runner:
    """Set-ups and timed passes of one workload under one deadline."""

    def __init__(self, workload, deadline: float):
        self.wl = workload
        self.deadline = deadline
        self.reports: list = []
        self.timed_out = False
        self.state = None
        #: one sample per group of set-ups: the group's mean set-up time
        self.setup_times: list[float] = []

    def setups(self, repeats: int, recorder=None) -> None:
        """Set up ``repeats`` times; the last state is kept for passes.

        The group's mean goes in as one sample, so a set-up of a few
        milliseconds is timed over ``repeats`` of them."""
        times: list[float] = []
        for _ in range(repeats):
            self.state = None
            if recorder is not None:
                recorder.open_run("setup", "setup")
            t0 = time.perf_counter()
            try:
                with time_limit(self.deadline):
                    self.state = self.wl.setup()
            except RunTimeout:
                self.timed_out = True
            t1 = time.perf_counter()
            if recorder is not None:
                t1 = t0 + recorder.close_run()
            if self.timed_out:
                return
            times.append(t1 - t0)
        if times:
            self.setup_times.append(statistics.fmean(times))

    def passes(self, budget: float, recorder=None,
               setups_before: int = 0) -> list[float]:
        """Timed passes until ``budget`` seconds are spent (at least one),
        each after ``setups_before`` fresh set-ups; returns their times.

        Set-ups spread between the passes sample the machine at the same
        moments the passes do, so ``setup_s`` sees the same noise."""
        times: list[float] = []
        while not self.timed_out:
            gc.collect()  # set-ups and passes start from a collected heap
            self.setups(setups_before)
            if self.state is None:
                break
            out = self.wl.new_outcome(self.state)
            gc.collect()
            if recorder is not None:
                recorder.open_run(f"pass{len(self.reports)}", "solve")
            t0 = time.perf_counter()
            try:
                with time_limit(self.deadline):
                    self.wl.run(self.state, out)
            except RunTimeout:
                self.timed_out = True
            t1 = time.perf_counter()
            if recorder is not None:
                t1 = t0 + recorder.close_run()
            times.append(t1 - t0)
            self.reports.append(self.wl.evaluate(self.state, out))
            del out  # free the pass's results before the next set-up
            spent = sum(times)
            if spent + spent / len(times) > budget:
                break
        return times

    @property
    def attempted(self) -> int:
        if not self.reports:  # cut off before any pass could start
            return max(self.wl.new_outcome(self.state).planned_cols, 1) \
                if self.state is not None else 1
        return sum(r.attempted for r in self.reports)

    @property
    def failed(self) -> int:
        if not self.reports:
            return self.attempted
        return sum(r.failed for r in self.reports)


def end_to_end(runner: Runner, pass_times: list[float]) -> dict:
    reps = runner.reports
    lat = reps[-1].latencies_s
    return {
        "setup_s": (statistics.median(runner.setup_times), "s"),
        "solve_s": (statistics.median(pass_times), "s"),
        "modeled_s": (statistics.median(r.modeled_s for r in reps), "s"),
        "modeled_p50_ms": (1e3 * percentile(lat, 0.50), "ms"),
        "modeled_p99_ms": (1e3 * percentile(lat, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(runner: Runner, rec, untraced: list[float],
              traced: list[float]) -> dict:
    import layers

    n = len(traced)
    traced_reps = runner.reports[-n:]
    solve = layers.layer_self_s(rec, "solve")
    setup = layers.layer_self_s(rec, "setup")

    def calls(*names: str) -> float:
        return layers.calls(rec, "solve", *names) / n

    def count(key: str) -> float:
        return rec.counts.get(("solve", key), 0.0) / n

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    led = traced_reps[-1].ledger
    iters = count("krylov.iterations")
    cache = {k: mean(r.cache.get(k, 0) for r in traced_reps)
             for k in ("hits", "misses", "evictions")}
    m = {metric: (solve.get(layer, 0.0) / n, "s")
         for layer, metric in layers.SELF_TIME_METRICS.items()}
    m.update({
        "service.batches": (mean(r.batches for r in traced_reps), "count"),
        "service.batch_width_mean": (
            mean(r.batch_width_mean for r in traced_reps), "cols"),
        "service.rejected": (mean(r.rejected for r in traced_reps), "count"),
        "service.deadline_wait_frac": (
            mean(r.deadline_wait_frac for r in traced_reps), "ratio"),
        "fingerprint.calls": (calls("fingerprint"), "count"),
        "cache.hits": (cache["hits"], "count"),
        "cache.misses": (cache["misses"], "count"),
        "cache.hit_ratio": (ratio(cache["hits"],
                                  cache["hits"] + cache["misses"]), "ratio"),
        "cache.evictions": (cache["evictions"], "count"),
        "cache.adoptions": (count("cache.adoptions"), "count"),
        "cache.adoption_repairs": (
            mean(r.adoption_repairs for r in traced_reps), "count"),
        "api.calls": (calls("api.solve"), "count"),
        "krylov.iterations": (iters, "count"),
        "krylov.cycles": (count("krylov.cycles"), "count"),
        "krylov.rhs_cols": (count("krylov.rhs_cols"), "cols"),
        "la.ortho.calls": (count("la.ortho.calls"), "count"),
        "la.blockqr.calls": (calls("la.blockqr"), "count"),
        "precond.setup_s": (
            layers.inclusive_s(rec, "setup", "precond.setup"), "s"),
        "precond.apply_calls": (calls("precond.apply"), "count"),
        "direct.factors": (calls("direct.lu_factor"), "count"),
        "direct.setup_factors": (
            layers.calls(rec, "setup", "direct.lu_factor"), "count"),
        "direct.setup_factor_s": (setup.get("direct.factor", 0.0), "s"),
        "direct.trisolve_calls": (calls("direct.trisolve"), "count"),
        "direct.trisolve_cols_mean": (
            ratio(count("direct.trisolve_cols"), calls("direct.trisolve")),
            "cols"),
        "direct.trisolve_bytes": (count("direct.trisolve_bytes"),
                                  "B_computed"),
        "spmm.calls": (calls("spmm"), "count"),
        "spmm.cols_mean": (ratio(count("spmm.cols"), calls("spmm")), "cols"),
        "perfmodel.calls": (calls("perfmodel"), "count"),
        "ledger.reductions": (led.reductions, "count"),
        "ledger.reduction_bytes": (led.reduction_bytes, "B"),
        "ledger.p2p_messages": (led.p2p_messages, "count"),
        "ledger.p2p_bytes": (led.p2p_bytes, "B"),
        "ledger.flops": (led.total_flops(), "flop"),
        "ledger.reductions_per_iter": (ratio(led.reductions, iters),
                                       "count/iter"),
        "problems.assemble_s": (
            layers.inclusive_s(rec, "setup", "problems.assemble"), "s"),
        "trace.setup_s": (runner.setup_times[0], "s"),
        "trace.solve_s": (mean(traced), "s"),
        "trace.untraced_solve_s": (mean(untraced), "s"),
        "trace.overhead_frac": (mean(traced) / mean(untraced) - 1.0,
                                "ratio"),
        "trace.spans": (len(rec) / (len(rec.runs)), "count"),
    })
    return m


def run(args) -> dict:
    import workloads

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    runner = Runner(wl, deadline)
    rec = None
    if not args.trace:
        pass_times = runner.passes(args.seconds,
                                   setups_before=wl.setups_per_pass)
        metrics = end_to_end(runner, pass_times) if runner.reports else {}
    else:
        import layers
        from tracing import SpanRecorder, install

        rec = SpanRecorder()
        targets = layers.targets()
        patches = install(rec, *targets)
        try:
            runner.setups(1, recorder=rec)
        finally:
            patches.restore()
        untraced = runner.passes(args.seconds / 2)
        patches = install(rec, *targets)
        try:
            traced = runner.passes(args.seconds / 2, recorder=rec)
        finally:
            patches.restore()
        metrics = per_layer(runner, rec, untraced, traced) \
            if traced else {}
    attempted, failed = runner.attempted, runner.failed
    summary = {
        "workload": wl.name, "seed": args.seed, "size": args.size,
        "trace": args.trace, "passes": len(runner.reports),
        "timed_out": runner.timed_out, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted,
        "worst_rel_residual": max((r.worst_residual for r in runner.reports),
                                  default=None),
        "latency_samples": len(runner.reports[-1].latencies_s)
        if runner.reports else 0,
        "wall_s": time.perf_counter() - start,
        "environment": environment(),
    }
    OUT.mkdir(exist_ok=True)
    if rec is not None:
        rec.write(OUT / f"spans_{wl.name}.npz")
    result = {
        "correct": failed == 0 and not runner.timed_out,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    (OUT / f"result_{wl.name}_trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=1))
    print(json.dumps({"summary": summary}))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("heat_ensemble", "maxwell_oras",
                                 "service_traffic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    pin_environment()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the library is missing ({SRC / 'repro'}); run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
