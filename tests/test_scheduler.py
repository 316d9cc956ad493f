"""Property-based and unit tests for the async scheduler and sharding.

The hypothesis tests drive :class:`repro.AsyncSolveService` with random
interleavings of submissions and clock advances, then shadow-replay the
recorded batches against the submission log to check the scheduler's
load-bearing invariants (ISSUE 7):

* every admitted request receives exactly one result;
* coalesced batches never mix operator fingerprints or options digests;
* dispatch is earliest-deadline-first within a shard among equal
  priorities (no deadline inversion at batch granularity);
* summed per-request cost shares equal the batch ledgers **bit-for-bit**
  under any interleaving, sharded and pipelined or not — plus a mutation
  test proving the conservation check fails when a share is dropped;
* every choice of the indexed scheduler (the group dispatched, the shard
  the deadline timer fires on, each shard's queue depth) equals a
  brute-force scan of the queue, including under a growing backlog and
  on equal deadlines across idle shards.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AsyncSolveService, Options, make_service
from repro.service import (ConsistentHashRouter, SetupCache,
                           ShardedSetupCache, SolveService,
                           operator_fingerprint)
from repro.trace import Tracer, install
from repro.util.ledger import CostLedger

from conftest import laplacian_1d, make_rng

N = 25  #: tiny operators — the properties are about scheduling, not solving


def _operators(count: int = 4) -> list[sp.csr_matrix]:
    return [laplacian_1d(N, shift=0.3 * (i + 1)) for i in range(count)]


def _service(**opts) -> AsyncSolveService:
    options = Options(krylov_method="gmres", service_mode="async", **opts)
    svc = make_service(options=options, preconditioner="lu")
    assert isinstance(svc, AsyncSolveService)
    return svc


# -- the property harness --------------------------------------------------

#: one driver step: either submit request #i against operator (op % len)
#: with a drawn deadline/priority, or advance the clock by `dt`
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 3),
                  st.sampled_from([0.0, 1e-4, 1e-3]),  # relative deadline
                  st.integers(0, 2)),                  # priority
        st.tuples(st.just("advance"),
                  st.sampled_from([1e-5, 1e-4, 1e-3]))),
    min_size=1, max_size=24)


# -- brute-force reference scans over ``_queue`` --------------------------
# The scheduler answers these questions from per-shard indexes; the scans
# below are the definition the indexes must reproduce exactly.

def _scan_depth(svc: AsyncSolveService, shard: int) -> int:
    return sum(1 for reqs in svc._queue.values() for r in reqs
               if r.shard == shard)


def _scan_best_key(svc: AsyncSolveService, shard: int):
    keys = [k for k, reqs in svc._queue.items() if reqs[0].shard == shard]
    if not keys:
        return None
    return min(keys, key=lambda k: min(r.urgency() for r in svc._queue[k]))


def _scan_next_deadline(svc: AsyncSolveService) -> tuple[float, int]:
    """Earliest deadline on an idle shard; ties go to the group that comes
    first in ``_queue`` (insertion) order."""
    best_t, best_s = math.inf, -1
    for reqs in svc._queue.values():
        shard = reqs[0].shard
        if svc._busy_until[shard] > svc.now:
            continue
        for r in reqs:
            if r.deadline < best_t:
                best_t, best_s = r.deadline, shard
    return best_t, best_s


class _Shadow:
    """Replays the scheduler's decisions against its own submission log.

    It also checks every scheduling choice as it is made: the group
    ``_best_key`` picks, the (time, shard) of the next deadline timer, and
    every shard's depth after each submit or advance must equal the
    brute-force scans above.
    """

    def __init__(self, svc: AsyncSolveService):
        self.svc = svc
        self.pending: dict[int, object] = {}   # admitted, not yet dispatched
        self.seen_batches = 0
        self.dispatched: set[int] = set()
        self.choices = 0
        self.timers: list[tuple[float, int]] = []  # finite timer picks
        best_key, next_deadline = svc._best_key, svc._next_deadline

        def checked_best_key(shard):
            want = _scan_best_key(svc, shard)
            got = best_key(shard)
            assert got == want, f"shard {shard}: picked {got}, scan {want}"
            self.choices += want is not None
            return got

        def checked_next_deadline():
            want = _scan_next_deadline(svc)
            got = next_deadline()
            assert got == want, f"timer {got}, scan {want}"
            if math.isfinite(want[0]):
                self.timers.append(want)
            return got

        svc._best_key = checked_best_key
        svc._next_deadline = checked_next_deadline

    def note_submit(self, req) -> None:
        if req.rejected is None:
            self.pending[req.index] = req

    def check_new_batches(self) -> None:
        for shard in range(self.svc.n_shards):
            assert self.svc.shard_depth(shard) == _scan_depth(self.svc,
                                                              shard)
        for rec in self.svc.batches[self.seen_batches:]:
            self._check_batch(rec)
        self.seen_batches = len(self.svc.batches)

    def _check_batch(self, rec) -> None:
        members = [self.pending.pop(i) for i in rec["request_indices"]]
        # -- no mixing: one fingerprint, one options digest per batch
        fps = {r.fingerprint.short() for r in members}
        assert fps == {rec["fingerprint"]}, \
            f"batch {rec['batch']} mixed fingerprints {fps}"
        # options compatibility is keyed by the digest recorded on the
        # batch; every member must map to it
        from repro.service import options_digest, options_key
        digests = {options_digest(options_key(r.options)) for r in members}
        assert digests == {rec["okey_digest"]}, \
            f"batch {rec['batch']} mixed options digests"
        # -- exactly-one-result: indices never dispatch twice
        indices = set(rec["request_indices"])
        assert not (indices & self.dispatched)
        self.dispatched |= indices
        # -- EDF at batch granularity: the batch's most urgent member is
        # no less urgent than anything left waiting on the same shard at
        # dispatch time (requests that arrived later are exempt)
        t = rec["dispatch_time"]
        best = min(r.urgency() for r in members)
        for other in self.pending.values():
            if other.shard != rec["shard"] or other.arrival > t:
                continue
            assert best <= other.urgency(), (
                f"batch {rec['batch']} dispatched {best} while more urgent "
                f"{other.urgency()} waited on shard {rec['shard']}")
        # -- within the chunk, members are urgency-sorted (deadline order
        # among equal priorities)
        urgencies = [r.urgency() for r in
                     sorted(members, key=lambda r: rec["request_indices"]
                            .index(r.index))]
        assert urgencies == sorted(urgencies), \
            "chunk not dispatched in urgency order"

    def check_final(self, admitted) -> None:
        assert not self.pending, "drain left admitted requests unsolved"
        for req in admitted:
            assert req.done
            assert req.result is not None
        assert {r.index for r in admitted} == self.dispatched
        # -- bit-exact conservation: per-request shares sum to the batch
        # ledgers, batch by batch and in aggregate
        total_shares = CostLedger()
        for req in admitted:
            total_shares.merge(req.result.info["service"]["cost"])
        total_batches = CostLedger()
        for rec in self.svc.batches:
            total_batches.merge(rec["ledger"])
        assert total_shares.counts() == total_batches.counts(), \
            "summed per-request shares != summed batch ledgers (bit-exact)"


@settings(max_examples=20, deadline=None)
@given(steps=_steps, data=st.data())
def test_scheduler_invariants(steps, data):
    """The four ISSUE-7 properties under random interleavings."""
    svc = _service(service_shards=2, service_pmax=4,
                   service_cache_entries=8)
    ops = _operators()
    rng = make_rng(len(steps))
    shadow = _Shadow(svc)
    admitted = []
    for step in steps:
        if step[0] == "submit":
            _, op, rel, priority = step
            req = svc.submit(ops[op], rng.standard_normal(N),
                             deadline=rel if rel > 0 else None,
                             priority=priority)
            shadow.note_submit(req)
            if req.rejected is None:
                admitted.append(req)
        else:
            svc.advance_to(svc.now + step[1])
        shadow.check_new_batches()
    svc.drain()
    shadow.check_new_batches()
    shadow.check_final(admitted)


def _by_shard(svc: AsyncSolveService, ops) -> dict[int, list]:
    out: dict[int, list] = {}
    for a in ops:
        out.setdefault(svc.cache.shard_of(operator_fingerprint(a)),
                       []).append(a)
    return out


def test_exact_choices_on_a_busy_shard_with_growing_backlog():
    """One shard receives requests faster than it serves them, so its
    backlog grows through the run while the other shard idles between
    deadline-driven batches; every pick must match the scans."""
    svc = _service(service_shards=2, service_pmax=2,
                   service_cache_entries=8)
    shadow = _Shadow(svc)
    lanes = _by_shard(svc, _operators(8))
    hot, cold = lanes[0], lanes[1]
    rng = make_rng(11)
    admitted, depths = [], []
    for i in range(90):
        a = cold[i // 9 % len(cold)] if i % 9 == 0 else hot[i % len(hot)]
        rel = (0.0, 2e-5, 1e-4, 1e-3)[i % 4]
        req = svc.submit(a, rng.standard_normal(N),
                         deadline=rel if rel > 0 else None,
                         priority=(i // 4) % 3)
        shadow.note_submit(req)
        admitted.append(req)
        shadow.check_new_batches()
        svc.advance_to(svc.now + 4e-6)
        shadow.check_new_batches()
        depths.append(svc.shard_depth(0))
    assert depths[-1] > 3 * depths[10] > 0, "the backlog did not grow"
    svc.drain()
    shadow.check_new_batches()
    shadow.check_final(admitted)
    assert shadow.choices >= len(svc.batches)
    assert any(shard == 1 for _, shard in shadow.timers)


@pytest.mark.parametrize("first", [0, 1])
def test_equal_deadlines_on_idle_shards_go_to_the_earlier_group(first):
    """Two idle shards hold requests due at the same instant: the timer
    fires first on the shard whose *group* was queued first, even when
    the other shard's request was submitted earlier."""
    svc = _service(service_shards=2, service_pmax=8)
    shadow = _Shadow(svc)
    lanes = _by_shard(svc, _operators(8))
    a_first, a_second = lanes[first][0], lanes[1 - first][0]
    rng = make_rng(12)
    # the first group opens with a late deadline, the second with the
    # shared one, then the first group gains a request due at that instant
    reqs = [svc.submit(a_first, rng.standard_normal(N), deadline=5e-3),
            svc.submit(a_second, rng.standard_normal(N), deadline=1e-3),
            svc.submit(a_first, rng.standard_normal(N), deadline=1e-3)]
    for req in reqs:
        shadow.note_submit(req)
    assert not any(r.done for r in reqs)
    assert reqs[1].deadline == reqs[2].deadline
    svc.advance_to(2e-3)
    shadow.check_new_batches()
    assert shadow.timers[0] == (1e-3, first)
    assert [rec["shard"] for rec in svc.batches] == [first, 1 - first]
    assert svc.batches[0]["request_indices"] == [reqs[2].index,
                                                  reqs[0].index]
    assert svc.batches[1]["dispatch_time"] == 1e-3


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dropped_share_breaks_conservation(seed):
    """Mutation test: dropping one cost share must fail the bit-exact
    conservation property (the property test is not vacuously true)."""
    svc = _service(service_shards=2, service_pmax=4)
    ops = _operators()
    rng = make_rng(seed)
    original_split = CostLedger.split

    def lossy_split(self, parts):
        shares = original_split(self, parts)
        shares[0] = CostLedger()  # drop the first column's share
        return shares

    CostLedger.split = lossy_split
    try:
        reqs = [svc.submit(ops[i % 2], rng.standard_normal(N))
                for i in range(6)]
        svc.drain()
    finally:
        CostLedger.split = original_split
    total_shares = CostLedger()
    for req in reqs:
        total_shares.merge(req.result.info["service"]["cost"])
    total_batches = CostLedger()
    for rec in svc.batches:
        total_batches.merge(rec["ledger"])
    assert total_shares.counts() != total_batches.counts(), \
        "conservation check failed to detect a dropped share"


# -- unit tests: router and sharded cache ----------------------------------

class TestConsistentHashRouter:
    def test_deterministic_and_in_range(self):
        ops = _operators(16)
        router = ConsistentHashRouter(4)
        shards = [router.route(operator_fingerprint(a)) for a in ops]
        assert shards == [ConsistentHashRouter(4).route(
            operator_fingerprint(a)) for a in ops]
        assert set(shards) <= set(range(4))
        assert len(set(shards)) > 1  # spreads across shards

    def test_removing_a_shard_only_remaps_its_keys(self):
        """The consistent-hashing stability property."""
        ops = _operators(32)
        fps = [operator_fingerprint(a) for a in ops]
        big, small = ConsistentHashRouter(5), ConsistentHashRouter(4)
        moved = 0
        for fp in fps:
            before, after = big.route(fp), small.route(fp)
            if before <= 3:
                assert after == before, \
                    "key moved although its shard survived the resize"
            else:
                moved += 1
        assert moved < len(fps)  # only shard 4's keys remapped

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(0)
        with pytest.raises(ValueError):
            ConsistentHashRouter(2, replicas=0)


class TestShardedSetupCache:
    def test_routes_consistently_and_aggregates_stats(self):
        cache = ShardedSetupCache(3, max_entries=4)
        ops = _operators(6)
        for a in ops:
            fp = operator_fingerprint(a)
            assert cache.get(fp, "lu") is None          # miss
            cache.put(fp, "lu", object())
            assert cache.get(fp, "lu") is not None      # hit, same shard
            assert fp in cache
            assert cache.shard_of(fp) == cache.router.route(fp)
        stats = cache.stats()
        assert stats["total_hits"] == len(ops)
        assert stats["total_misses"] == len(ops)
        assert stats["entries"] == len(cache) == len(ops)
        assert len(stats["shards"]) == 3
        assert sum(s["entries"] for s in stats["shards"]) == len(ops)

    def test_eviction_pressure_is_per_shard(self):
        """Satellite 3: eviction accounting under sharding — flooding the
        shard that owns one fingerprint never evicts other shards."""
        cache = ShardedSetupCache(2, max_entries=2)
        ops = _operators(12)
        fps = [operator_fingerprint(a) for a in ops]
        by_shard = {0: [], 1: []}
        for fp in fps:
            by_shard[cache.shard_of(fp)].append(fp)
        assert by_shard[0] and by_shard[1]
        victim = by_shard[0][0]
        cache.put(victim, "lu", "keep-me")
        # flood the *other* shard far past its capacity
        for fp in by_shard[1]:
            cache.put(fp, "lu", "flood")
        assert victim in cache, "cross-shard eviction leaked"
        assert cache.shards[0].evictions == 0
        expected = max(0, len(by_shard[1]) - 2)
        assert cache.shards[1].evictions == expected
        assert cache.evictions == expected
        assert cache.stats()["evictions"] == expected

    def test_invalidate_all_and_one(self):
        cache = ShardedSetupCache(2, max_entries=4)
        fps = [operator_fingerprint(a) for a in _operators(4)]
        for fp in fps:
            cache.put(fp, "lu", 1)
        cache.invalidate(fps[0])
        assert fps[0] not in cache
        cache.invalidate()
        assert len(cache) == 0


# -- unit tests: scheduler behaviours --------------------------------------

class TestAdmissionControl:
    def test_queue_full_rejects_when_shard_busy(self):
        svc = _service(service_shards=1, service_pmax=4,
                       service_queue_depth=2)
        ops = _operators(1)
        rng = make_rng(1)
        # a full queue on an *idle* shard dispatches (backpressure, not
        # deadlock): the second submit flushes a width-2 batch
        first = [svc.submit(ops[0], rng.standard_normal(N))
                 for _ in range(2)]
        assert all(r.done for r in first)
        # shard now busy; the bound admits two more, then rejects
        held = [svc.submit(ops[0], rng.standard_normal(N)) for _ in range(3)]
        reasons = [r.rejected for r in held]
        assert reasons == [None, None, "queue_full"]
        rejected = held[-1]
        assert svc.rejections == [rejected]
        with pytest.raises(RuntimeError, match="rejected"):
            svc.result(rejected)
        svc.drain()
        assert all(r.done for r in held[:2])
        assert not rejected.done

    def test_expired_deadline_rejected(self):
        svc = _service(service_shards=1)
        svc.advance_to(1.0)
        req = svc.submit(_operators(1)[0], make_rng(2).standard_normal(N),
                         deadline=-0.5)
        assert req.rejected == "deadline_unmeetable"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_request_rejected_healthy_batch_unchanged(self, bad):
        """One poisoned request of four is refused at admission; the three
        healthy ones solve exactly as a clean batch of three would (a NaN
        column used to stall the whole coalesced batch in ``drain``)."""
        a = laplacian_1d(400, shift=1.0)
        rng = make_rng(13)
        rhs = [rng.standard_normal(400) for _ in range(4)]
        rhs[2][17] = bad
        healthy = [b for j, b in enumerate(rhs) if j != 2]

        def run(blocks):
            svc = make_service(options=Options(
                krylov_method="gmres", service_mode="async",
                service_pmax=4, service_shards=1))
            reqs = [svc.submit(a, b) for b in blocks]
            svc.drain()
            return svc, reqs

        svc, reqs = run(rhs)
        assert reqs[2].rejected == "non_finite_input"
        assert svc.rejections == [reqs[2]]
        assert svc.shard_depth(0) == 0
        with pytest.raises(RuntimeError, match="non_finite_input"):
            svc.result(reqs[2])
        clean_svc, clean = run(healthy)
        assert [rec["width"] for rec in svc.batches] == [3]
        for got, want in zip([r for r in reqs if r is not reqs[2]], clean):
            assert got.result.converged.all()
            np.testing.assert_array_equal(got.result.x, want.result.x)
            assert got.result.iterations == want.result.iterations
            assert (got.result.info["service"]["cost"].counts()
                    == want.result.info["service"]["cost"].counts())

    def test_non_finite_shift_or_guess_rejected(self):
        svc = _service(service_shards=1)
        a = _operators(1)[0]
        x0 = np.zeros(N)
        x0[0] = np.nan
        with install(Tracer()) as tr:
            reqs = [svc.submit(a, np.ones(N), x0=x0),
                    svc.submit_family(a, np.ones(N), [0.0, np.inf]),
                    svc.submit(a, np.ones(N), deadline=np.nan)]
        assert [r.rejected for r in reqs] == ["non_finite_input"] * 3
        assert tr.metrics.counter("service_rejected_total").value(
            reason="non_finite_input") == 3
        assert svc.drain() == []

    def test_default_deadline_from_options(self):
        svc = _service(service_shards=1, service_deadline=1e-3)
        req = svc.submit(_operators(1)[0], make_rng(3).standard_normal(N))
        assert req.deadline == pytest.approx(1e-3)
        svc.drain()
        assert req.result.info["service"]["deadline"] == pytest.approx(1e-3)


class TestDeadlineDispatch:
    def test_due_deadline_forces_partial_dispatch(self):
        """A queued group whose deadline arrives goes out under-full."""
        svc = _service(service_shards=1, service_pmax=8)
        req = svc.submit(_operators(1)[0], make_rng(4).standard_normal(N),
                         deadline=1e-4)
        assert not req.done  # under-full, waiting
        svc.advance_to(1e-4)
        assert req.done, "deadline timer did not dispatch the batch"
        assert req.result.info["service"]["batch_width"] == 1
        assert req.dispatch_time == pytest.approx(1e-4)

    def test_priority_preempts_earlier_deadline_of_lower_priority(self):
        svc = _service(service_shards=1, service_pmax=2)
        ops = _operators(2)
        rng = make_rng(5)
        low = svc.submit(ops[0], rng.standard_normal(N), deadline=1e-3,
                         priority=0)
        high = svc.submit(ops[1], rng.standard_normal(N), deadline=5e-3,
                          priority=1)
        svc.drain()
        assert high.dispatch_time <= low.dispatch_time

    def test_deadline_miss_is_recorded(self):
        svc = _service(service_shards=1, service_pmax=1)
        # an extremely tight deadline: the batch completes after it
        req = svc.submit(_operators(1)[0], make_rng(6).standard_normal(N),
                         deadline=1e-12)
        svc.drain()
        assert req.result.info["service"]["deadline_missed"] is True
        assert svc.deadline_misses == 1


class TestPipelining:
    def test_arrivals_during_batch_form_the_next_batch(self):
        """Cross-batch pipelining: requests accumulating while a shard is
        busy are dispatched as one block at the completion event."""
        svc = _service(service_shards=1, service_pmax=4)
        ops = _operators(1)
        rng = make_rng(7)
        first = [svc.submit(ops[0], rng.standard_normal(N))
                 for _ in range(4)]  # fills pmax -> dispatches, shard busy
        assert all(r.done for r in first)
        late = [svc.submit(ops[0], rng.standard_normal(N))
                for _ in range(3)]   # accumulate behind the running batch
        assert not any(r.done for r in late)
        svc.advance_to(svc.makespan)  # completion event pipelines them out
        assert all(r.done for r in late)
        assert len(svc.batches) == 2
        assert svc.batches[1]["width"] == 3
        assert svc.batches[1]["dispatch_time"] == pytest.approx(
            svc.batches[0]["completion_time"])

    def test_sync_async_equal_solutions(self):
        """The sync oracle and the async scheduler agree numerically."""
        ops = _operators(3)
        rng = make_rng(8)
        rhs = [rng.standard_normal(N) for _ in range(9)]
        results = {}
        for mode in ("sync", "async"):
            svc = make_service(
                options=Options(krylov_method="gmres", service_mode=mode,
                                service_pmax=4, service_shards=2),
                preconditioner="lu")
            reqs = [svc.submit(ops[i % 3], b) for i, b in enumerate(rhs)]
            svc.flush()
            results[mode] = [np.asarray(svc.result(r).x) for r in reqs]
            assert all(r.result.converged.all() for r in reqs)
        for xs, xa in zip(results["sync"], results["async"]):
            np.testing.assert_allclose(xs, xa, rtol=1e-10, atol=1e-12)

    def test_immediate_solve_keeps_indexes_in_step(self):
        """The inherited ``solve`` dispatches a group outside the clock;
        the shard indexes must follow, so later scheduling stays exact."""
        svc = _service(service_shards=1, service_pmax=4)
        shadow = _Shadow(svc)
        ops = _operators(2)
        rng = make_rng(14)
        queued = svc.submit(ops[0], rng.standard_normal(N), deadline=1e-3)
        res = svc.solve(ops[0], rng.standard_normal(N))
        assert res.converged.all() and queued.done
        assert svc.shard_depth(0) == 0
        late = svc.submit(ops[0], rng.standard_normal(N), deadline=1e-3)
        other = svc.submit(ops[1], rng.standard_normal(N), deadline=5e-4)
        assert svc.shard_depth(0) == 2
        svc.advance_to(2e-3)
        assert late.done and other.done
        assert other.dispatch_time < late.dispatch_time
        assert shadow.timers and shadow.choices

    def test_make_service_dispatches_on_mode(self):
        sync = make_service(options=Options(service_mode="sync"))
        assert type(sync) is SolveService
        async_ = make_service(options=Options(service_mode="async"))
        assert isinstance(async_, AsyncSolveService)
        assert isinstance(async_.cache, ShardedSetupCache)

    def test_explicit_policy_defers_to_drain(self):
        svc = _service(service_shards=1, service_pmax=2,
                       service_flush="explicit")
        rng = make_rng(9)
        reqs = [svc.submit(_operators(1)[0], rng.standard_normal(N))
                for _ in range(4)]
        assert not any(r.done for r in reqs)  # no eager dispatch
        svc.drain()
        assert all(r.done for r in reqs)


# -- unit tests: per-(fingerprint, kind) cache counters --------------------

class TestCacheCounterRegression:
    def test_two_digests_one_fingerprint_distinct_counters(self):
        """Satellite 3 regression: one fingerprint probed under two
        different options digests in the same flush wave must hit two
        distinct counters, not double-count one."""
        cache = SetupCache(max_entries=4)
        a = _operators(1)[0]
        fp = operator_fingerprint(a)
        # two options digests -> two recycle kinds against one fingerprint
        cache.get(fp, "recycle:aaaaaaaaaaaa")  # miss
        cache.get(fp, "recycle:bbbbbbbbbbbb")  # miss (distinct counter)
        cache.put(fp, "recycle:aaaaaaaaaaaa", object())
        cache.get(fp, "recycle:aaaaaaaaaaaa")  # hit
        cache.get(fp, "recycle:bbbbbbbbbbbb")  # still a miss
        per_key = cache.key_stats(fp)
        assert per_key["recycle:aaaaaaaaaaaa"] == {"hits": 1, "misses": 1}
        assert per_key["recycle:bbbbbbbbbbbb"] == {"hits": 0, "misses": 2}
        # the aggregate view stays consistent with the per-key counters
        stats = cache.stats()
        assert stats["total_hits"] == 1
        assert stats["total_misses"] == 3
        assert stats["misses"]["recycle:bbbbbbbbbbbb"] == 2

    def test_same_kind_two_fingerprints_do_not_merge(self):
        cache = SetupCache(max_entries=4)
        a, b = _operators(2)
        fa, fb = operator_fingerprint(a), operator_fingerprint(b)
        cache.get(fa, "lu")
        cache.get(fb, "lu")
        cache.put(fa, "lu", 1)
        cache.get(fa, "lu")
        assert cache.key_stats(fa)["lu"] == {"hits": 1, "misses": 1}
        assert cache.key_stats(fb)["lu"] == {"hits": 0, "misses": 1}
        assert cache.stats()["misses"]["lu"] == 2  # aggregate per kind

    def test_service_flush_wave_counts_per_digest(self):
        """End to end through the service: same operator, two recycling
        option sets in one flush wave — the recycle probes must not
        double-count under one counter key."""
        a = _operators(1)[0]
        fp = operator_fingerprint(a)
        opts1 = Options(krylov_method="gcrodr", recycle=3, gmres_restart=10,
                        service_flush="queue_drained")
        opts2 = Options(krylov_method="gcrodr", recycle=4, gmres_restart=10,
                        service_flush="queue_drained")
        svc = SolveService(options=opts1, preconditioner="lu")
        rng = make_rng(10)
        for opts in (opts1, opts2):
            for _ in range(2):
                svc.submit(a, rng.standard_normal(N), options=opts)
        svc.flush()
        per_key = svc.cache.key_stats(fp)
        recycle_kinds = [k for k in per_key if k.startswith("recycle:")]
        assert len(recycle_kinds) == 2, \
            "two options digests must probe two distinct recycle counters"
        for kind in recycle_kinds:
            assert per_key[kind]["misses"] == 1  # one cold probe each
