"""The benchmark's three workloads, driven through the public API only.

Each workload has three parts:

* ``setup()`` builds the inputs from the seed (assembly, decomposition,
  preconditioner and factor construction) and returns them;
* ``run(state, out)`` is the timed pass.  It records what it submits in
  ``out`` as it goes, so a pass cut short by the run's time limit still
  shows which solves never finished;
* ``evaluate(state, out)`` checks every answer from outside: it
  recomputes the true relative residual ``||b - A x|| / ||b||`` against
  the ``A`` and ``b`` the benchmark submitted (``A + sigma I`` for family
  requests) and never reads ``converged``.  It also sums the modeled
  time of the pass's solves and collects their modeled latencies.

Sizes come in two presets: ``full`` (what the benchmark measures) and
``tiny`` (seconds per pass, for the benchmark's own tests).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

import repro
from repro import api, problems
from repro.perfmodel import modeled_time
from repro.precond import SchwarzPreconditioner
from repro.service import AsyncSolveService, SequenceDriver, SolveService
from repro.service import traffic

#: rank count of the modeled clock (the paper's 64-process configuration)
NRANKS = 64


@dataclass
class PassOutcome:
    """What one pass submitted and what came back (filled while it runs)."""

    planned_cols: int
    submitted: list = field(default_factory=list)
    service: Any = None
    ledger: Any = None


@dataclass
class PassReport:
    """The outside-in verdict on one pass."""

    attempted: int
    failed: int
    worst_residual: float
    modeled_s: float
    latencies_s: list[float]
    ledger: Any
    batches: int = 0
    batch_width_mean: float = 0.0
    rejected: int = 0
    cache: dict[str, float] = field(default_factory=dict)
    adoption_repairs: int = 0
    deadline_wait_frac: float = 0.0


def relative_residuals(a, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column ``||b - A x|| / ||b||``, recomputed from scratch."""
    x2 = np.asarray(x).reshape(b.shape[0], -1)
    b2 = np.asarray(b).reshape(b.shape[0], -1)
    r = b2 - np.asarray(a @ x2).reshape(b2.shape)
    return np.linalg.norm(r, axis=0) / np.linalg.norm(b2, axis=0)


class _Verdict:
    """Counts failed columns: unsolved, non-finite, or above tolerance."""

    def __init__(self, tol: float):
        self.tol = tol
        self.failed = 0
        self.worst = 0.0

    def unsolved(self, cols: int) -> None:
        self.failed += cols

    def solved(self, rel: np.ndarray) -> None:
        rel = np.atleast_1d(rel)
        bad = ~np.isfinite(rel) | (rel > self.tol)
        self.failed += int(bad.sum())
        finite = rel[np.isfinite(rel)]
        if finite.size:
            self.worst = max(self.worst, float(finite.max()))


def _modeled(led, width: int) -> float:
    return float(modeled_time(led, NRANKS, block_width=width).total)


def _deadline_wait_frac(requests) -> float:
    """Share of the requests' latency spent waiting for a deadline timer.

    ``advance_to`` fires a timer at a queued request's absolute deadline
    and dispatches on the spot, so a batch counts as sent by a timer when
    its dispatch time equals the earliest deadline among its requests.
    """
    def batch(req) -> int:
        return req.result.info["service"]["batch"]

    earliest: dict[int, float] = {}
    for req in requests:
        earliest[batch(req)] = min(earliest.get(batch(req), math.inf),
                                   req.deadline)
    waited = sum(req.dispatch_time - req.arrival for req in requests
                 if req.dispatch_time == earliest[batch(req)])
    total = sum(req.latency for req in requests)
    return waited / total if total else 0.0


def _cache_counts(service) -> dict[str, float]:
    if service is None:
        return {}
    stats = service.cache.stats()
    return {"hits": stats["total_hits"], "misses": stats["total_misses"],
            "evictions": stats["evictions"]}


# ---------------------------------------------------------------------------
# heat_ensemble
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HeatConfig:
    nx: int = 32
    n_steps: int = 200
    dt0: float = 5e-4
    epoch_length: int = 25
    growth: float = 1.25
    tenants: int = 4
    tol: float = 1e-8


class _SubmitLog:
    """Stands in front of a service and keeps every ``(A, b, request)``.

    The sequence driver builds each step's right-hand side from the
    previous solution; this log is how the benchmark sees the exact
    ``A`` and ``b`` that crossed the service's public ``submit``.
    """

    def __init__(self, service: SolveService, out: PassOutcome):
        self._service = service
        self._out = out

    def submit(self, a, b, **kwargs):
        req = self._service.submit(a, b, **kwargs)
        self._out.submitted.append((a, b, req))
        return req

    def __getattr__(self, name: str):
        return getattr(self._service, name)


def _pulse(phase: int, center: np.ndarray, dt0: float):
    """The paper's nu-family heat pulse, phase-shifted and re-centred."""
    nus = problems.PAPER_NUS

    def source(points: np.ndarray, t: float) -> np.ndarray:
        nu = nus[(int(round(t / dt0)) + phase) % len(nus)]
        x, y = points[:, 0], points[:, 1]
        return (np.exp(-(center[0] - x) ** 2 / nu)
                * np.exp(-(center[1] - y) ** 2 / nu)) / nu

    return source


class HeatEnsemble:
    """Four adaptive-dt heat tenants through a sync service, closed loop."""

    name = "heat_ensemble"
    setups_per_pass = 32

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.cfg = HeatConfig() if size == "full" else HeatConfig(
            nx=8, n_steps=12, epoch_length=4)
        self.opts = repro.Options(
            krylov_method="gcrodr", gmres_restart=30, recycle=10,
            orthogonalization="cgs2_1r", tol=self.cfg.tol, max_it=20000,
            recycle_same_system=False, service_flush="explicit")

    def setup(self) -> dict:
        cfg = self.cfg
        rng = np.random.default_rng([self.seed, 0x4EA7])
        phases = rng.permutation(len(problems.PAPER_NUS))
        centers = 1.0 - 0.25 * rng.random((cfg.tenants, 2))
        seqs = [problems.HeatSequence(
            nx=cfg.nx, n_steps=cfg.n_steps, dt0=cfg.dt0,
            epoch_length=cfg.epoch_length, growth=cfg.growth,
            source=_pulse(int(ph), c, cfg.dt0))
            for ph, c in zip(phases, centers)]
        for seq in seqs:
            # operators are built lazily once per epoch; build them here
            for step in seq.steps():
                seq.operator(step)
        return {"seqs": seqs}

    def new_outcome(self, state: dict) -> PassOutcome:
        return PassOutcome(planned_cols=self.cfg.tenants * self.cfg.n_steps)

    def run(self, state: dict, out: PassOutcome) -> None:
        with repro.install_ledger() as led:
            out.ledger = led
            svc = SolveService(options=self.opts)
            out.service = svc
            driver = SequenceDriver(_SubmitLog(svc, out))
            for i, seq in enumerate(state["seqs"]):
                driver.add(seq, options=self.opts, tenant=f"tenant{i}")
            driver.run(strict=False)

    def evaluate(self, state: dict, out: PassOutcome) -> PassReport:
        verdict = _Verdict(self.cfg.tol)
        batches = out.service.batches if out.service is not None else []
        batch_s = {rec["batch"]: _modeled(rec["ledger"], rec["width"])
                   for rec in batches}
        latencies = []
        repaired = set()
        for a, b, req in out.submitted:
            if req.result is None:
                verdict.unsolved(1)
                continue
            verdict.solved(relative_residuals(a, req.result.x, b))
            info = req.result.info["service"]
            latencies.append(batch_s[info["batch"]])
            if info.get("recycle_adopted"):
                repaired.add(info["batch"])
        verdict.unsolved(out.planned_cols - len(out.submitted))
        widths = [rec["width"] for rec in batches]
        return PassReport(
            attempted=out.planned_cols, failed=verdict.failed,
            worst_residual=verdict.worst, modeled_s=sum(batch_s.values()),
            latencies_s=latencies, ledger=out.ledger,
            batches=len(widths),
            batch_width_mean=float(np.mean(widths)) if widths else 0.0,
            cache=_cache_counts(out.service),
            adoption_repairs=len(repaired))


# ---------------------------------------------------------------------------
# maxwell_oras
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MaxwellConfig:
    n: int = 8
    inclusion_radius: float = 0.15
    nparts: int = 8
    overlap: int = 2
    antennas: int = 32
    block: int = 8
    tol: float = 1e-8


class MaxwellOras:
    """The imaging scenario: 32 antennas, ORAS, block GCRO-DR, no service."""

    name = "maxwell_oras"
    setups_per_pass = 1

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.cfg = MaxwellConfig() if size == "full" else MaxwellConfig(
            n=4, nparts=4, antennas=8, block=4)
        self.opts = repro.Options(
            krylov_method="bgcrodr", gmres_restart=50, recycle=10,
            recycle_same_system=True, tol=self.cfg.tol, variant="right",
            max_it=4000)

    def setup(self) -> dict:
        cfg = self.cfg
        prob = problems.maxwell_chamber(
            cfg.n, inclusion_radius=cfg.inclusion_radius)
        rng = np.random.default_rng([self.seed, 0xA27])
        b_all = problems.antenna_ring_rhs(prob, n_antennas=cfg.antennas,
                                          ring_z=rng.uniform(0.4, 0.6))
        dec = problems.decompose_maxwell(prob, cfg.nparts,
                                         overlap=cfg.overlap, impedance=True)
        m = SchwarzPreconditioner(prob.a, variant="oras",
                                  decomposition=dec.decomposition,
                                  local_matrices=dec.local_matrices)
        order = rng.permutation(cfg.antennas)
        blocks = [np.ascontiguousarray(b_all[:, order[j:j + cfg.block]])
                  for j in range(0, cfg.antennas, cfg.block)]
        # the first apply builds the batched subdomain factors lazily;
        # finish that here so every timed pass does the same work
        m.apply(blocks[0])
        return {"a": prob.a, "m": m, "blocks": blocks}

    def new_outcome(self, state: dict) -> PassOutcome:
        return PassOutcome(planned_cols=self.cfg.antennas)

    def run(self, state: dict, out: PassOutcome) -> None:
        solver = api.Solver(state["m"], options=self.opts)
        for blk in state["blocks"]:
            with repro.install_ledger() as led:
                res = solver.solve(state["a"], blk)
            out.submitted.append((blk, res, led))

    def evaluate(self, state: dict, out: PassOutcome) -> PassReport:
        verdict = _Verdict(self.cfg.tol)
        total = repro.CostLedger()
        clock = 0.0
        latencies = []
        for blk, res, led in out.submitted:
            verdict.solved(relative_residuals(state["a"], res.x, blk))
            total.merge(led)
            clock += _modeled(led, blk.shape[1])
            # all antennas are requested at t=0; a column completes with
            # its block on the modeled clock
            latencies.extend([clock] * blk.shape[1])
        done = sum(blk.shape[1] for blk, _, _ in out.submitted)
        verdict.unsolved(out.planned_cols - done)
        return PassReport(
            attempted=out.planned_cols, failed=verdict.failed,
            worst_residual=verdict.worst, modeled_s=clock,
            latencies_s=latencies, ledger=total)


# ---------------------------------------------------------------------------
# service_traffic
# ---------------------------------------------------------------------------
class ServiceTraffic:
    """Seeded open-loop traffic replayed through the async service."""

    name = "service_traffic"
    setups_per_pass = 8

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        # the load of benchmarks/bench_traffic.py: the rate of its family
        # scenario and the deadline of its burst scenario.  Without a
        # deadline an idle shard holds a group below pmax until drain.
        base = traffic.TrafficConfig(
            seed=seed, n_requests=15_000, n_operators=64, grid=8,
            zipf_s=1.1, rate=1e5, deadline=2e-3, n_tenants=4,
            family_fraction=0.15, family_shifts=4, pmax=16, shards=4,
            cache_entries=12)
        self.cfg = base if size == "full" else dataclasses.replace(
            base, n_requests=160, n_operators=16, shards=2, cache_entries=2)
        self.tol = 1e-8
        self.opts = repro.Options(
            krylov_method=self.cfg.method, service_mode="async",
            service_pmax=self.cfg.pmax, service_shards=self.cfg.shards,
            service_cache_entries=self.cfg.cache_entries,
            service_deadline=self.cfg.deadline, tol=self.tol)

    def setup(self) -> dict:
        cfg = self.cfg
        arrivals = traffic.generate(cfg)
        ops = traffic.build_operators(cfg)
        base = traffic.base_operator(cfg)
        n = base.shape[0]
        rhs = [np.random.default_rng([self.seed, ar.seed]).standard_normal(n)
               for ar in arrivals]
        return {"arrivals": arrivals, "ops": ops, "base": base, "rhs": rhs}

    def new_outcome(self, state: dict) -> PassOutcome:
        return PassOutcome(planned_cols=sum(len(ar.shifts) or 1
                                            for ar in state["arrivals"]))

    def run(self, state: dict, out: PassOutcome) -> None:
        arrivals, ops, base = state["arrivals"], state["ops"], state["base"]
        with repro.install_ledger() as led:
            out.ledger = led
            svc = AsyncSolveService(options=self.opts, preconditioner="lu")
            out.service = svc
            for ar, b in zip(arrivals, state["rhs"]):
                svc.advance_to(ar.time)
                kwargs = {"deadline": ar.deadline or None,
                          "priority": ar.priority, "tenant": ar.tenant}
                if ar.shifts:
                    req = svc.submit_family(base, b, list(ar.shifts),
                                            **kwargs)
                else:
                    req = svc.submit(ops[ar.op], b, **kwargs)
                out.submitted.append((ar, b, req))
            svc.drain()

    def evaluate(self, state: dict, out: PassOutcome) -> PassReport:
        verdict = _Verdict(self.tol)
        ops, base = state["ops"], state["base"]
        eye = sp.eye(base.shape[0], format="csr")
        shifted: dict[float, sp.csr_matrix] = {}
        latencies = []
        solved = []
        for ar, b, req in out.submitted:
            cols = len(ar.shifts) or 1
            if req.rejected is not None or req.result is None:
                verdict.unsolved(cols)
                continue
            if ar.shifts:
                for sigma, sres in zip(req.result.shifts, req.result.results):
                    a = shifted.get(sigma)
                    if a is None:
                        a = shifted[sigma] = (base + sigma * eye).tocsr()
                    verdict.solved(relative_residuals(a, sres.x, b))
            else:
                verdict.solved(relative_residuals(ops[ar.op], req.result.x, b))
            latencies.append(req.latency)
            solved.append(req)
        done = sum(len(ar.shifts) or 1 for ar, _, _ in out.submitted)
        verdict.unsolved(out.planned_cols - done)
        svc = out.service
        batches = svc.batches if svc is not None else []
        widths = [rec["width"] for rec in batches]
        return PassReport(
            attempted=out.planned_cols, failed=verdict.failed,
            worst_residual=verdict.worst,
            modeled_s=sum(_modeled(rec["ledger"], rec["width"])
                          for rec in batches),
            latencies_s=latencies, ledger=out.ledger, batches=len(widths),
            batch_width_mean=float(np.mean(widths)) if widths else 0.0,
            rejected=len(svc.rejections) if svc is not None else 0,
            cache=_cache_counts(svc),
            deadline_wait_frac=_deadline_wait_frac(solved))


WORKLOADS = {w.name: w for w in (HeatEnsemble, MaxwellOras, ServiceTraffic)}
