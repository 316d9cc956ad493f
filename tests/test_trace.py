"""Observability layer: span tracer, metrics, exports, and the trace gate.

Locks down the tentpole invariants:

* span nesting mirrors the solver's phase structure;
* per-span exclusive costs sum back to the outer ledger window
  (bit-for-bit on every discrete counter) in both execution modes;
* the default null tracer changes nothing — ledger ``counts()`` and
  solver ``info`` are identical with tracing off;
* the trace gate re-derives the paper's reduction shapes (GMRES ``m``,
  GCRO-DR ``2(m-k)``, cgs2_1r <= 2/step) from exported spans.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import laplacian_1d, laplacian_2d
from repro import api
from repro.service import SolveService
from repro.trace import (GateError, MetricsRegistry, NullTracer, Tracer,
                         chrome_trace_json, counts_signature, current,
                         install, modeled_span_seconds, run_gate, tracer_for)
from repro.trace.gate import (check_conservation, check_gcrodr_shape,
                              check_gmres_shape, check_step_reduction_bound)
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.util.options import OptionError, Options


def _merge_exclusives(root):
    total = CostLedger()
    for span in root.walk():
        if span.cost is not None:
            total.merge(span.exclusive())
    return total


# ---------------------------------------------------------------------------
class TestSpanMechanics:
    def test_nesting_and_attrs(self):
        tr = Tracer()
        with install(tr):
            with tr.span("solve", method="gmres") as root:
                with tr.span("cycle", index=0):
                    with tr.span("arnoldi_step", j=0):
                        pass
                with tr.span("cycle", index=1):
                    pass
        assert [c.name for c in root.children] == ["cycle", "cycle"]
        assert root.attrs == {"method": "gmres"}
        assert root.children[0].children[0].name == "arnoldi_step"
        assert len(root.find("cycle")) == 2
        assert [s.name for s in root.walk()] == [
            "solve", "cycle", "arnoldi_step", "cycle"]

    def test_exclusive_subtracts_children(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("outer") as outer:
                led.reduction(count=1)
                with tr.span("inner") as inner:
                    led.reduction(count=2, nbytes=16)
                led.reduction(count=4)
        assert outer.cost.reductions == 7
        assert inner.cost.reductions == 2
        assert outer.exclusive().reductions == 5
        assert inner.exclusive().reductions == 2

    def test_exclusive_skips_other_ledger_children(self):
        """A child recorded under a nested ledger.install must not be
        subtracted — its charges reached the parent only via merge."""
        tr = Tracer()
        outer_led = CostLedger()
        with ledger.install(outer_led), install(tr):
            with tr.span("batch") as batch:
                inner_led = CostLedger()
                with ledger.install(inner_led):
                    with tr.span("solve"):
                        inner_led.reduction(count=3)
                outer_led.merge(inner_led)
        assert batch.cost.reductions == 3
        assert batch.exclusive().reductions == 3  # child not double-counted

    def test_exclusive_zeroes_timers(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("outer") as outer:
                with led.timer("wall"):
                    led.reduction()
        assert outer.exclusive().timers == {}

    def test_open_span_raises(self):
        tr = Tracer()
        cm = tr.span("solve")
        span = cm.__enter__()
        with pytest.raises(RuntimeError, match="still open"):
            span.exclusive()
        cm.__exit__(None, None, None)

    def test_to_dict_roundtrips_through_json(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                led.flop("spmv", 10.0)
        d = json.loads(json.dumps(root.to_dict()))
        assert d["name"] == "solve"
        assert d["flops"] == {"spmv": 10.0}
        assert d["children"] == []

    def test_exception_unwinds_stack(self):
        tr = Tracer()
        with install(tr):
            with pytest.raises(ValueError):
                with tr.span("solve"):
                    with tr.span("cycle"):
                        raise ValueError("boom")
            with tr.span("after"):
                pass
        assert [r.name for r in tr.roots] == ["solve", "after"]
        assert tr.roots[0].cost is not None  # closed despite the exception


class TestNullTracer:
    def test_default_is_null(self):
        assert isinstance(current(), NullTracer)
        assert not current().enabled

    def test_null_span_is_noop_singleton(self):
        null = current()
        cm1, cm2 = null.span("x"), null.detail_span("y", a=1)
        assert cm1 is cm2
        with cm1 as got:
            assert got is None

    def test_tracer_for_resolution(self):
        assert not tracer_for(Options()).enabled
        tr = tracer_for(Options(trace="summary"))
        assert tr.enabled and tr.level == "summary"
        ambient = Tracer("full")
        with install(ambient):
            assert tracer_for(Options(trace="off")) is ambient

    def test_invalid_tracer_level(self):
        with pytest.raises(ValueError):
            Tracer("off")
        with pytest.raises(ValueError):
            Tracer("verbose")


# ---------------------------------------------------------------------------
class TestSolverTraces:
    def _solve(self, method, mode, rng, **kw):
        a = laplacian_1d(240, shift=0.5)   # well-conditioned: converges fast
        b = rng.standard_normal(240)
        opts = Options(krylov_method=method, tol=1e-10, exec_mode=mode,
                       trace="summary", **kw)
        tr = Tracer()
        led = CostLedger()
        with install(tr), ledger.install(led):
            res = api.solve(a, b, options=opts)
        return res, tr.roots[-1], led

    @pytest.mark.parametrize("mode", ["fused", "per_rank"])
    @pytest.mark.parametrize("method,kw", [
        ("gmres", {}), ("gcrodr", {"recycle": 5}), ("bgmres", {}),
    ])
    def test_conservation_both_exec_modes(self, rng, method, kw, mode):
        res, root, led = self._solve(method, mode, rng, **kw)
        assert res.converged.all()
        check_conservation(root)  # raises GateError on violation
        # the root window is the whole outer ledger (solve is all that ran)
        assert counts_signature(root.cost) == counts_signature(led)

    def test_cycle_structure_gmres(self, rng):
        res, root, _ = self._solve("gmres", "fused", rng)
        cycles = root.find("cycle")
        assert cycles, "gmres must trace cycles"
        for cyc in cycles:
            steps = cyc.find("arnoldi_step")
            assert steps
            for step in steps:
                orthos = step.find("ortho")
                assert len(orthos) == 1
                # op_apply never charges reductions: the step's reductions
                # are exactly the orthogonalization's
                assert step.cost.reductions == orthos[0].cost.reductions

    def test_info_trace_summary(self, rng):
        res, root, _ = self._solve("gmres", "fused", rng)
        trace_info = res.info["trace"]
        assert trace_info["level"] == "summary"
        assert trace_info["span"]["name"] == "solve"
        assert "cycle" in trace_info["summary"]["by_name"]

    def test_incremental_summary_matches_full_walk(self, rng):
        """``summary()`` folds closed roots once; after every solve of a
        mixed sequence (single, block, recycled, family, service batch)
        it equals a from-scratch walk over every recorded root."""
        def full_walk(tr):
            by_name = {}
            for root in tr.roots:
                for span in root.walk():
                    if span.cost is None:
                        continue
                    excl = span.exclusive()
                    row = by_name.setdefault(
                        span.name, {"count": 0, "reductions": 0,
                                    "reduction_bytes": 0, "flops": 0.0})
                    row["count"] += 1
                    row["reductions"] += excl.reductions
                    row["reduction_bytes"] += excl.reduction_bytes
                    row["flops"] += excl.total_flops()
            return {"level": tr.level, "spans": tr._count,
                    "by_name": {k: by_name[k] for k in sorted(by_name)}}

        a = laplacian_1d(120, shift=0.5)
        b = rng.standard_normal((120, 2))
        tr = Tracer()
        svc = SolveService(options=Options(krylov_method="gmres",
                                           service_pmax=2))
        solves = [
            lambda: api.solve(a, b[:, 0], options=Options()),
            lambda: api.solve(a, b, options=Options(krylov_method="bgmres")),
            lambda: api.solve(a, b, options=Options(
                krylov_method="gcrodr", recycle=4, gmres_restart=12)),
            lambda: api.solve(a, b[:, 0], options=Options(),
                              shifts=[0.0, 0.5]),
            lambda: [svc.submit(a, b[:, j]) for j in range(2)],
        ]
        with install(tr), ledger.install(CostLedger()):
            with tr.span("outer"):  # an open root: walked, not folded
                api.solve(a, b[:, 1], options=Options())
                assert tr.summary() == full_walk(tr)
            for step in solves + solves:
                res = step()
                assert tr.summary() == full_walk(tr)
                if hasattr(res, "info"):
                    assert res.info["trace"]["summary"] == full_walk(tr)
        assert tr._n_folded == len(tr.roots)

    def test_off_is_byte_identical(self, rng):
        a = laplacian_1d(240)
        b = rng.standard_normal(240)
        led_off, led_on = CostLedger(), CostLedger()
        with ledger.install(led_off):
            r_off = api.solve(a, b, options=Options(krylov_method="gmres"))
        with ledger.install(led_on):
            r_on = api.solve(a, b,
                             options=Options(krylov_method="gmres",
                                             trace="summary"))
        assert led_off.counts() == led_on.counts()
        assert "trace" not in r_off.info
        info_on = {k: v for k, v in r_on.info.items() if k != "trace"}
        assert repr(r_off.info) == repr(info_on)
        np.testing.assert_array_equal(r_off.x, r_on.x)

    def test_full_level_records_collectives(self, rng):
        """The simmpi collectives only open spans at the "full" level."""
        from repro.simmpi import VirtualGrid, dot_columns, norm_columns
        from repro.util.execmode import use_exec_mode
        grid = VirtualGrid(64, 4)
        x = rng.standard_normal((64, 3))
        for level, expected in (("summary", 0), ("full", 2)):
            tr = Tracer(level)
            led = CostLedger()
            with install(tr), ledger.install(led), use_exec_mode("per_rank"):
                with tr.span("solve") as root:
                    dot_columns(grid, x, x)
                    norm_columns(grid, x)
            found = (root.find("simmpi.dot_columns")
                     + root.find("simmpi.norm_columns"))
            assert len(found) == expected
            if level == "full":
                # the per-rank path nests allreduce_sum inside each
                assert len(root.find("simmpi.allreduce_sum")) == 2
                check_conservation(root)
                assert root.cost.reductions == 2

    def test_setup_spans(self, rng):
        from repro.precond.schwarz import SchwarzPreconditioner
        a = laplacian_2d(14)
        tr = Tracer()
        with install(tr), ledger.install():
            m = SchwarzPreconditioner(a, nparts=4)
        setup = tr.roots[0]
        assert setup.name == "setup.schwarz"
        assert [c.name for c in setup.children] == ["setup.lu"] * 4
        # the span window matches what the private setup ledger recorded
        assert setup.cost.counts() == m.setup_cost.counts()


# ---------------------------------------------------------------------------
class TestServiceTracing:
    def test_batch_span_and_metrics(self, rng):
        a = laplacian_1d(200)
        svc = SolveService(options=Options(krylov_method="gmres", tol=1e-8))
        tr = Tracer()
        with install(tr), ledger.install() as led:
            handles = [svc.submit(a, rng.standard_normal(200))
                       for _ in range(4)]
            svc.flush()
            for h in handles:
                h.result
        batches = [r for r in tr.roots if r.name == "service.batch"]
        assert len(batches) == 1
        batch = batches[0]
        assert batch.attrs["width"] == 4
        # the batch window equals the merged batch ledger: conservation at
        # this level means the whole outer ledger is the batch window
        assert counts_signature(batch.cost) == counts_signature(led)
        assert tr.metrics.counter("service_requests_total").value() == 4
        assert tr.metrics.counter("service_batches_total").value() == 1
        occ = tr.metrics.histogram("service_batch_occupancy")
        assert occ.count() == 1 and occ.sum() == 4

    def test_setup_cache_metrics(self, rng):
        a = laplacian_1d(200)
        svc = SolveService(options=Options(krylov_method="gmres", tol=1e-8),
                           preconditioner="lu")
        tr = Tracer()
        with install(tr), ledger.install():
            svc.submit(a, rng.standard_normal(200))
            svc.flush()
            svc.submit(a, rng.standard_normal(200))
            svc.flush()
        cache = tr.metrics.counter("service_setup_cache_total")
        assert cache.value(outcome="miss") == 1
        assert cache.value(outcome="hit") == 1


# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2, method="gmres")
        reg.gauge("depth").set(7)
        assert reg.counter("hits").value() == 1
        assert reg.counter("hits").value(method="gmres") == 2
        assert reg.gauge("depth").value() == 7
        with pytest.raises(ValueError):
            reg.counter("hits").inc(-1)

    def test_type_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_histogram_buckets_and_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("iters", buckets=(1, 10, 100))
        for v in (0, 1, 5, 50, 500):
            h.observe(v)
        assert h.count() == 5 and h.sum() == 556
        snap = reg.snapshot()
        assert 'iters_bucket{le="1"} 2' in snap
        assert 'iters_bucket{le="10"} 3' in snap
        assert 'iters_bucket{le="100"} 4' in snap
        assert 'iters_bucket{le="+Inf"} 5' in snap
        assert "iters_count 5" in snap
        assert reg.snapshot() == reg.snapshot()  # deterministic
        assert reg.as_dict()["iters_count"] == 5

    def test_null_registry_absorbs(self):
        null = NullTracer().metrics
        null.counter("x").inc()
        null.histogram("y").observe(3)
        null.gauge("z").set(1)
        assert null.snapshot() == ""


# ---------------------------------------------------------------------------
class TestExports:
    def _traced(self, rng):
        a = laplacian_1d(240)
        b = rng.standard_normal(240)
        tr = Tracer()
        with install(tr), ledger.install():
            api.solve(a, b, options=Options(krylov_method="gmres",
                                            trace="summary"))
        return tr

    def test_chrome_trace_shape(self, rng):
        tr = self._traced(rng)
        doc = json.loads(chrome_trace_json(tr))
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        solve = next(e for e in events if e["name"] == "solve")
        for e in events:
            assert e["ts"] >= solve["ts"]
            assert e["ts"] + e["dur"] <= solve["ts"] + solve["dur"] + 1e-6
        assert "reductions" in solve["args"]

    def test_chrome_trace_deterministic(self, rng):
        tr = self._traced(rng)
        assert chrome_trace_json(tr) == chrome_trace_json(tr)

    def test_modeled_time_children_fit(self, rng):
        tr = self._traced(rng)
        root = tr.roots[-1]
        total = modeled_span_seconds(root)
        assert total > 0
        assert sum(modeled_span_seconds(c) for c in root.children) <= total

    def test_counts_signature_drops_zeros(self):
        led = CostLedger()
        led.flop("spmv", 5.0)
        other = led.snapshot()
        diff = led.diff(CostLedger())
        diff.flops["blas3"] = 0.0  # what Counter.subtract leaves behind
        assert counts_signature(diff) == counts_signature(other)


# ---------------------------------------------------------------------------
class TestTraceGate:
    @pytest.mark.slow
    def test_run_gate_passes(self):
        report = run_gate()
        assert report["reductions_per_cycle"] == {
            "gmres": 10, "gcrodr": 12,
            "gcrodr_sketched_recycle": "steps + 1"}
        for mode in ("fused", "per_rank"):
            assert report[mode]["gmres"]["full_cycles"] >= 1
            assert report[mode]["gcrodr"]["full_cycles"] >= 1
            assert report[mode]["cgs2_1r_bound"]["max_reductions_per_step"] <= 2
            for shape in report[mode]["sketched_recycle"].values():
                assert shape["overhead_per_cycle"] <= 1

    def test_gate_shapes_single_mode(self, rng):
        """The fast (tier-1) version: one exec mode, real solves."""
        report = run_gate(exec_modes=("fused",))
        assert report["fused"]["gmres"]["reductions_per_full_cycle"] == 10
        assert report["fused"]["gcrodr"]["reductions_per_full_cycle"] == 12

    def _fake_cycle(self, tr, led, nsteps, reds_per_step, name="cycle",
                    **attrs):
        with tr.span(name, **attrs):
            for j in range(nsteps):
                with tr.span("arnoldi_step", j=j):
                    led.reduction(count=reds_per_step)

    def test_gmres_shape_rejects_extra_reduction(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=4, reds_per_step=2)
        with pytest.raises(GateError, match="expected one per step"):
            check_gmres_shape(root, m=4)

    def test_gmres_shape_requires_full_cycle(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=3, reds_per_step=1)
        with pytest.raises(GateError, match="no full m=4 cycle"):
            check_gmres_shape(root, m=4)

    def test_gcrodr_shape_rejects_recycle_update(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=6, reds_per_step=2,
                                 kind="gcrodr")
                with tr.span("recycle_update"):
                    led.reduction()
        with pytest.raises(GateError, match="recycle_update"):
            check_gcrodr_shape(root, m=10, k=4)

    def test_gcrodr_shape_rejects_variable_count(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=6, reds_per_step=2,
                                 kind="gcrodr")
                self._fake_cycle(tr, led, nsteps=6, reds_per_step=3,
                                 kind="gcrodr")
        with pytest.raises(GateError, match="2 per step"):
            check_gcrodr_shape(root, m=10, k=4)

    def test_step_bound(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=2, reds_per_step=3)
        with pytest.raises(GateError, match="low-synchronization bound"):
            check_step_reduction_bound(root)
        assert check_step_reduction_bound(root, bound=3)[
            "max_reductions_per_step"] == 3


# ---------------------------------------------------------------------------
class TestOptionsTrace:
    def test_validation(self):
        assert Options().trace == "off"
        assert Options(trace="full").trace == "full"
        with pytest.raises(OptionError, match="trace"):
            Options(trace="loud")

    def test_hpddm_args_roundtrip(self):
        from repro.util.options import parse_hpddm_args
        args = Options(trace="summary").hpddm_args()
        assert "-hpddm_trace" in args
        assert parse_hpddm_args(args).trace == "summary"
        assert "-hpddm_trace" not in Options().hpddm_args()
