"""The five closed-loop workloads (one client, one thread).

Each workload generates its whole input from the seed in ``__init__``
(untimed), builds its stack in :meth:`setup` (timed as ``setup_s``; a run
calls it several times and keeps the last stack), drives it in
:meth:`run` and compares the final state with its oracle in
:meth:`verify`. Operation counts depend on ``factor`` alone, so every
sim-clock and count metric repeats bit-for-bit for a seed.

Only the names listed under "Frozen API" in the README are used here.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from harness import P99_MIN_SAMPLES, Recorder, digest, percentile
from repro import KB, JiffyConfig, SimClock, TieredMemoryPool, connect, make_control_plane
from repro.core.cache import CachedKV, ClientCache
from repro.rpc.dataplane import RemoteKV, RemoteQueue, serve_kv, serve_queue
from repro.sim.network import NetworkModel
from repro.storage import ExternalStore
from repro.storage.tier import TIER_BY_NAME
from repro.telemetry import MetricsRegistry
from repro.workloads.snowflake import SnowflakeWorkloadGenerator, demand_series

now_ns = time.perf_counter_ns

#: Ops between two mem-utilisation samples; also the unit in which the op
#: arrays are turned into Python lists, outside the timed loops.
CHUNK = 1000

VALUE_BYTES = 100
BATCH = 64
KV_BLOCK = 64 * KB

GET, PUT, MGET, MPUT, DELETE, QUEUE, RENEW = range(7)


def _scaled(base: int, factor: float, floor: int) -> int:
    return max(int(base * factor), floor)


def _zipf_ranks(rng: np.random.Generator, num_keys: int, n: int, s: float = 0.99):
    weights = 1.0 / np.arange(1, num_keys + 1, dtype=np.float64) ** s
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(n)), num_keys - 1)


def _pick(rng: np.random.Generator, n: int, mix: Sequence[Tuple[int, float]]):
    """``n`` op codes drawn with the given (code, share) mix."""
    codes = np.asarray([code for code, _ in mix])
    edges = np.cumsum([share for _, share in mix])[:-1]
    return codes[np.searchsorted(edges, rng.random(n), side="right")]


def _key(i: int) -> bytes:
    return b"key-%08d" % i


def _chunks(total: int, warm: int) -> Iterator[Tuple[int, int, bool]]:
    """``(start, stop, timed)`` ranges of at most CHUNK ops; none
    straddles the end of the warm-up."""
    for lo, hi, timed in ((0, warm, False), (warm, total, True)):
        for start in range(lo, hi, CHUNK):
            yield start, min(start + CHUNK, hi), timed


def _utilization(plane: Any, structures: Sequence[Any]) -> float:
    """used / allocated bytes over the given structures' blocks.

    Blocks are read through the data-plane path (``get_block``), which
    costs no RPC on the remote backend and so leaves the counts alone.
    """
    used = blocks = 0
    for ds in structures:
        for block_id in ds.node.block_ids:
            used += plane.get_block(block_id).used
            blocks += 1
    return used / (blocks * plane.config.block_size) if blocks else 1.0


class Workload:
    name = ""

    def __init__(self, seed: int, factor: float) -> None:
        self.seed = seed
        self.factor = factor
        self.rng = np.random.default_rng([seed, sum(self.name.encode())])
        self.plane: Any = None
        #: workload-specific end-to-end metrics: name -> (value, samples)
        self.extra: Dict[str, Tuple[float, int]] = {}
        #: called with True before and False after every timed loop, so
        #: that the harness's own sampling between loops is never traced
        self.timed_hook = lambda on: None

    def op_trace_digest(self) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, rec: Recorder) -> None:
        raise NotImplementedError

    def verify(self, rec: Recorder) -> None:
        raise NotImplementedError

    def extra_counts(self) -> Dict[str, float]:
        """Timed-section counts kept outside the registry (loop, pool, store)."""
        return {}

    def _begin_timed(self) -> None:
        self.counters_begin = self.plane.telemetry.counters()

    def _end_timed(self, rec: Recorder) -> None:
        self.counters_end = self.plane.telemetry.counters()


# ----------------------------------------------------------------------
# The four key-value workloads share one driving loop
# ----------------------------------------------------------------------


class _KvWorkload(Workload):
    """Replays ``op/ki/vi`` against whatever handles :meth:`setup` bound.

    read = ``get``, write = ``put``; every other call counts as an op but
    has no latency row of its own (bar ``renew``).
    """

    warm_ops = 0

    def __init__(self, seed: int, factor: float) -> None:
        super().__init__(seed, factor)
        self.values = [self.rng.bytes(VALUE_BYTES) for _ in range(256)]
        self.batch_ki = np.zeros((0, BATCH), dtype=np.int64)
        self.fifo: deque = deque()  # oracle of the queue ops (rpc_remote only)
        # set by subclasses: op, ki, vi (numpy), keys, and in setup():
        # oracle, structures, get/put/delete/mget/mput (+ queue handles)

    def op_trace_digest(self) -> str:
        return digest(
            [self.op.tobytes(), self.ki.tobytes(), self.vi.tobytes(),
             self.batch_ki.tobytes(), b"".join(self.keys[:256])]
        )

    def _local_stack(self) -> None:
        self.registry = MetricsRegistry()
        self.plane = make_control_plane(
            "local",
            config=JiffyConfig(block_size=KV_BLOCK),
            clock=SimClock(),
            default_blocks=self._pool_blocks(),
            registry=self.registry,
        )
        self.client = connect(self.plane, "bench")
        self.client.create_addr_prefix("kv")
        self.kv = self.client.init_data_structure("kv", "kv_store")
        self.structures = (self.kv,)
        self.get, self.put, self.delete = self.kv.get, self.kv.put, self.kv.delete
        self.mget, self.mput = self.kv.multi_get, self.kv.multi_put

    def _pool_blocks(self) -> int:
        return len(self.keys) * 160 // KV_BLOCK * 4 + 64

    def run(self, rec: Recorder) -> None:
        keys, values, oracle = self.keys, self.values, self.oracle
        get, put, delete, mget, mput = self.get, self.put, self.delete, self.mget, self.mput
        batch_ki = self.batch_ki.tolist()
        batch_pos = 0
        fifo = self.fifo
        seq = 0
        began = False
        for start, stop, timed in _chunks(len(self.op), self.warm_ops):
            if timed and not began:
                began = True
                self._begin_timed()
            ops = self.op[start:stop].tolist()
            kis = self.ki[start:stop].tolist()
            vis = self.vi[start:stop].tolist()
            reads: List[int] = []
            writes: List[int] = []
            renews: List[int] = []
            bad = 0
            self.timed_hook(timed)
            begin = now_ns()
            for op, ki, vi in zip(ops, kis, vis):
                try:
                    if op == GET:
                        key = keys[ki]
                        t0 = now_ns()
                        value = get(key)
                        t1 = now_ns()
                        reads.append(t1 - t0)
                        if value != oracle[ki]:
                            bad += 1
                    elif op == PUT:
                        key = keys[ki]
                        value = values[vi]
                        t0 = now_ns()
                        put(key, value)
                        t1 = now_ns()
                        writes.append(t1 - t0)
                        oracle[ki] = value
                    elif op == MGET:
                        idx = batch_ki[batch_pos]
                        batch_pos += 1
                        if mget([keys[i] for i in idx]) != [oracle[i] for i in idx]:
                            bad += 1
                    elif op == MPUT:
                        idx = batch_ki[batch_pos]
                        batch_pos += 1
                        value = values[vi]
                        mput([(keys[i], value) for i in idx])
                        for i in idx:
                            oracle[i] = value
                    elif op == DELETE:
                        if delete(keys[ki]) != oracle[ki]:
                            bad += 1
                        oracle[ki] = None
                    elif op == QUEUE:  # alternating enqueue / dequeue
                        if fifo:
                            if self.rq.dequeue() != fifo.popleft():
                                bad += 1
                        else:
                            item = b"%012d" % seq + values[vi]
                            seq += 1
                            self.rq.enqueue(item)
                            fifo.append(item)
                    else:
                        t0 = now_ns()
                        count = self.client.renew_leases(self.prefixes)
                        t1 = now_ns()
                        renews.append(t1 - t0)
                        if count != len(self.prefixes):
                            bad += 1
                except Exception as exc:  # noqa: BLE001 — counted, not fatal
                    rec.fail(f"{self.name} op {op}: {exc!r}")
            end = now_ns()
            self.timed_hook(False)
            rec.attempted += stop - start
            if bad:
                rec.fail(f"{self.name}: {bad} wrong result(s)", bad)
            if timed:
                rec.busy_ns += end - begin
                rec.ops += stop - start
                rec.lat_ns["read"].extend(reads)
                rec.lat_ns["write"].extend(writes)
                rec.lat_ns["renew"].extend(renews)
                rec.util.append(_utilization(self.plane, self.structures))
        self._end_timed(rec)

    def verify(self, rec: Recorder) -> None:
        self.plane.drain_background()
        expected = {k: v for k, v in zip(self.keys, self.oracle) if v is not None}
        rec.check(dict(self.kv.items()) == expected, f"{self.name}: final kv state")


class KvRead(_KvWorkload):
    name = "kv_read"
    KEYS = 16_000
    OPS = 700_000
    WARM = 0.02
    MIX = ((GET, 0.94), (PUT, 0.05), (MGET, 0.01))

    def __init__(self, seed: int, factor: float) -> None:
        super().__init__(seed, factor)
        rng = self.rng
        num_keys = _scaled(self.KEYS, factor, 512)
        timed = _scaled(self.OPS, factor, 2000)
        self.warm_ops = int(timed * self.WARM)
        total = timed + self.warm_ops
        self.keys = [_key(i) for i in range(num_keys)]
        perm = rng.permutation(num_keys)
        self.op = _pick(rng, total, self.MIX)
        self.ki = perm[_zipf_ranks(rng, num_keys, total)]
        self.vi = rng.integers(0, len(self.values), total)
        batches = int((self.op == MGET).sum())
        self.batch_ki = perm[_zipf_ranks(rng, num_keys, batches * BATCH)].reshape(batches, BATCH)

    def setup(self) -> None:
        self._local_stack()
        for key in self.keys:
            self.put(key, self.values[0])
        self.plane.drain_background()
        self.oracle: List[Optional[bytes]] = [self.values[0]] * len(self.keys)


class KvGrow(_KvWorkload):
    name = "kv_grow"
    INSERTS = 40_000
    GET_EVERY = 4  # one verified get of an inserted key per 4 inserts
    DELETES = 0.97  # of the inserted keys, in seeded random order
    REINSERTS = 0.6  # of the deleted keys

    def __init__(self, seed: int, factor: float) -> None:
        super().__init__(seed, factor)
        rng = self.rng
        n = _scaled(self.INSERTS, factor, 1200)
        self.keys = [_key(i) for i in rng.permutation(n).tolist()]
        gets = n // self.GET_EVERY
        grow_op = np.full(n + gets, PUT)
        grow_ki = np.zeros(n + gets, dtype=np.int64)
        get_at = np.arange(1, gets + 1) * (self.GET_EVERY + 1) - 1
        grow_op[get_at] = GET
        grow_ki[grow_op == PUT] = np.arange(n)
        # the get after insert i reads a uniformly chosen key among 0..i
        inserted = np.arange(1, gets + 1) * self.GET_EVERY
        grow_ki[get_at] = (rng.random(gets) * inserted).astype(np.int64)
        deleted = rng.permutation(n)[: int(n * self.DELETES)]
        again = deleted[: int(len(deleted) * self.REINSERTS)]
        self.op = np.concatenate([grow_op, np.full(len(deleted), DELETE), np.full(len(again), PUT)])
        self.ki = np.concatenate([grow_ki, deleted, again])
        self.vi = rng.integers(0, len(self.values), len(self.op))

    def setup(self) -> None:
        self._local_stack()
        self.oracle: List[Optional[bytes]] = [None] * len(self.keys)


# ----------------------------------------------------------------------
# rpc_remote / cache_zipf: the simulated-RPC path
# ----------------------------------------------------------------------


class _RemoteKvWorkload(_KvWorkload):
    """Remote control plane + the KV store served over the framed RPC path."""

    prefixes: List[str] = ["kv"]

    def _remote_stack(self) -> None:
        self.registry = MetricsRegistry()
        self.plane = make_control_plane(
            "remote",
            config=JiffyConfig(block_size=KV_BLOCK),
            clock=SimClock(),
            default_blocks=self._pool_blocks(),
            registry=self.registry,
            network=NetworkModel(sigma=0.0),
        )
        self.loop = self.plane.loop
        self.client = connect(self.plane, "bench")
        for prefix in self.prefixes:
            self.client.create_addr_prefix(prefix)
        self.kv = self.client.init_data_structure("kv", "kv_store")
        self.structures = (self.kv,)
        self.rkv = RemoteKV(
            self.loop,
            serve_kv(self.kv, self.loop, registry=self.registry),
            network=NetworkModel(sigma=0.0),
            registry=self.registry,
        )
        self.get, self.put, self.delete = self.rkv.get, self.rkv.put, self.rkv.delete
        self.mget, self.mput = self.rkv.multi_get, self.rkv.multi_put

    def _preload(self, count: int) -> None:
        value = self.values[0]
        for start in range(0, count, BATCH):
            stop = min(start + BATCH, count)
            self.rkv.multi_put([(key, value) for key in self.keys[start:stop]])
        self.plane.drain_background()

    def _rpcs(self) -> int:
        return sum(
            value for key, value in self.registry.counters().items()
            if key.startswith("rpc.client.requests")
        )

    def _begin_timed(self) -> None:
        self._sim0 = self.loop.clock.now()
        self._events0 = self.loop.events_processed
        self._rpcs0 = self._rpcs()
        super()._begin_timed()

    def _end_timed(self, rec: Recorder) -> None:
        super()._end_timed(rec)
        self.extra["sim_elapsed_s"] = (self.loop.clock.now() - self._sim0, rec.ops)
        self.extra["rpcs_per_op"] = ((self._rpcs() - self._rpcs0) / rec.ops, rec.ops)
        self._events = self.loop.events_processed - self._events0

    def extra_counts(self) -> Dict[str, float]:
        return {"sim.events.events_processed": self._events}


class RpcRemote(_RemoteKvWorkload):
    name = "rpc_remote"
    KEYS = 8_000
    OPS = 40_000
    MIX = ((GET, 0.50), (PUT, 0.20), (MGET, 0.08), (MPUT, 0.02), (QUEUE, 0.10), (RENEW, 0.10))
    prefixes = ["kv", "q", "aux-0", "aux-1"]

    def __init__(self, seed: int, factor: float) -> None:
        super().__init__(seed, factor)
        rng = self.rng
        num_keys = _scaled(self.KEYS, factor, 512)
        n = _scaled(self.OPS, factor, 1500)
        self.keys = [_key(i) for i in range(num_keys)]
        self.op = _pick(rng, n, self.MIX)
        self.ki = rng.integers(0, num_keys, n)
        self.vi = rng.integers(0, len(self.values), n)
        batches = int(((self.op == MGET) | (self.op == MPUT)).sum())
        self.batch_ki = rng.integers(0, num_keys, (batches, BATCH))

    def setup(self) -> None:
        self._remote_stack()
        self.queue = self.client.init_data_structure("q", "fifo_queue")
        self.structures = (self.kv, self.queue)
        self.rq = RemoteQueue(
            self.loop,
            serve_queue(self.queue, self.loop, registry=self.registry),
            network=NetworkModel(sigma=0.0),
            registry=self.registry,
        )
        self._preload(len(self.keys))
        self.oracle: List[Optional[bytes]] = [self.values[0]] * len(self.keys)
        self.fifo.clear()

    def verify(self, rec: Recorder) -> None:
        super().verify(rec)
        rest = self.queue.dequeue_batch(len(self.queue))
        rec.check(rest == list(self.fifo), "rpc_remote: final queue state")


class CacheZipf(_RemoteKvWorkload):
    name = "cache_zipf"
    KEYS = 12_000
    OPS = 150_000
    WARM = 0.10
    MIX = ((GET, 0.85), (PUT, 0.15))
    INSERT = 0.05  # of all ops: puts of a new key; the other puts update one
    CACHE_SHARE = 0.11  # of the preloaded data, as ClientCache accounts it
    WRITEBACK_BYTES = 64 * KB

    def __init__(self, seed: int, factor: float) -> None:
        super().__init__(seed, factor)
        rng = self.rng
        self.preloaded = _scaled(self.KEYS, factor, 512)
        timed = _scaled(self.OPS, factor, 2000)
        self.warm_ops = int(timed * self.WARM)
        total = timed + self.warm_ops
        perm = rng.permutation(self.preloaded)
        self.op = _pick(rng, total, self.MIX)
        self.ki = perm[_zipf_ranks(rng, self.preloaded, total)]
        inserts = (self.op == PUT) & (rng.random(total) < self.INSERT / dict(self.MIX)[PUT])
        self.ki[inserts] = self.preloaded + np.arange(int(inserts.sum()))
        self.vi = rng.integers(0, len(self.values), total)
        self.keys = [_key(i) for i in range(self.preloaded + int(inserts.sum()))]
        # key + value + the cache's 64 B per-entry overhead
        self.cache_bytes = int(self.preloaded * (12 + VALUE_BYTES + 64) * self.CACHE_SHARE)

    def setup(self) -> None:
        self._remote_stack()
        self._preload(self.preloaded)
        self.oracle: List[Optional[bytes]] = [self.values[0]] * self.preloaded
        self.oracle += [None] * (len(self.keys) - self.preloaded)
        self.cached = CachedKV(
            self.kv,
            ClientCache(self.cache_bytes, registry=self.registry),
            transport=self.rkv,
            writeback_bytes=self.WRITEBACK_BYTES,
        )
        self.get, self.put = self.cached.get, self.cached.put

    def _end_timed(self, rec: Recorder) -> None:
        self.timed_hook(True)
        begin = now_ns()
        try:
            self.cached.flush()  # the last write-back is part of the run
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            rec.fail(f"{self.name} flush: {exc!r}")
        rec.busy_ns += now_ns() - begin
        self.timed_hook(False)
        rec.ops += 1
        rec.attempted += 1
        super()._end_timed(rec)


# ----------------------------------------------------------------------
# tenant_replay: control plane + tiering + file/queue under a trace
# ----------------------------------------------------------------------


class _Job:
    __slots__ = ("trace", "kind", "salt", "names", "cursor", "client", "created", "ds",
                 "node", "fifo", "written", "made", "consumed", "penalty_s")

    def __init__(self, trace: Any, kind: str, salt: int) -> None:
        self.trace = trace
        self.kind = kind
        self.salt = salt
        self.names = [f"s{i}" for i in range(len(trace.stages))]
        self.cursor = 0  # index of the stage that has not ended yet
        self.client: Any = None
        self.created = 0  # prefixes s0 .. s{created-1} exist
        self.ds: Dict[int, Any] = {}
        self.node: Dict[int, Any] = {}  # the structures' address nodes (block id lists)
        self.fifo: Dict[int, deque] = {}  # oracle of the queue stages
        self.written: Dict[int, int] = {}  # bytes of stage output produced
        self.made: Dict[int, int] = {}  # queue items produced
        self.consumed: Dict[int, int] = {}  # bytes | items consumed
        self.penalty_s = 0.0


class TenantReplay(Workload):
    name = "tenant_replay"
    TENANTS = 120
    DURATION_S = 600.0
    DT = 0.5
    BLOCK = 4 * KB
    DRAM_SHARE = 0.5  # of the trace's peak demand
    PMEM_SHARE = 0.25  # budget of the first spill tier; the rest lands on the last
    RECORD = 128  # bytes per queue item
    #: One replayed byte stands for this many when device time is charged
    #: (a 4 KB block stands for 40 MB, as in the fig9 system replay).
    BYTES_SCALE_UP = 1e4
    MEAN_STAGE_OUTPUT = 8 * KB
    SIGMA_OUTPUT = 0.8
    SIGMA_TENANT = 0.5  # log-normal spread of the tenants' sizes
    BLOB = 1 << 20

    def __init__(self, seed: int, factor: float) -> None:
        super().__init__(seed, factor)
        self.tenants = _scaled(self.TENANTS, factor, 4)
        blob = self.rng.bytes(self.BLOB)
        self.blob = blob + blob
        self.high_limit = int(self.BLOCK * 0.95)
        self.steps = int(math.ceil(self.DURATION_S / self.DT))
        self.traces: List[Any] = []

    def op_trace_digest(self) -> str:
        return digest(
            repr((j.job_id, j.submit_time,
                  [(s.start, s.duration, s.output_bytes) for s in j.stages])).encode()
            for j in self.traces
        )

    def setup(self) -> None:
        """Generate the trace, size the tiers from its peak demand, build the plane."""
        gen = SnowflakeWorkloadGenerator(
            seed=self.seed,
            mean_stage_output=self.MEAN_STAGE_OUTPUT,
            sigma_output=self.SIGMA_OUTPUT,
        )
        sizes = np.random.default_rng(self.seed).lognormal(0.0, self.SIGMA_TENANT, self.tenants)
        self.traces = sorted(
            (
                job
                for t, size in enumerate(sizes.tolist())
                for job in gen.generate_tenant(f"tenant-{t}", self.DURATION_S, tenant_scale=size)
            ),
            key=lambda job: (job.submit_time, job.job_id),
        )
        _, demand = demand_series(self.traces, 0.0, self.DURATION_S, self.DT)
        peak_blocks = int(math.ceil(float(demand.max()) / self.high_limit))
        self.registry = MetricsRegistry()
        self.clock = SimClock()
        config = JiffyConfig(block_size=self.BLOCK, lease_duration=1.0, tiering="adaptive")
        self.pool = TieredMemoryPool(
            self.BLOCK,
            tiers=[TIER_BY_NAME[name] for name in config.tier_chain],
            tier_budgets={
                config.tier_chain[0]: max(int(peak_blocks * self.PMEM_SHARE), 8) * self.BLOCK
            },
        )
        self.pool.add_server(max(int(peak_blocks * self.DRAM_SHARE), 16))
        self.store = ExternalStore()
        self.plane = make_control_plane(
            "local",
            config=config,
            clock=self.clock,
            pool=self.pool,
            external_store=self.store,
            registry=self.registry,
        )
        self.jobs = [
            _Job(trace, "file" if i % 2 == 0 else "fifo_queue", 7919 * i)
            for i, trace in enumerate(self.traces)
        ]

    def _device_s(self, job: _Job, stage: int, first: int, last: int, nbytes: int,
                  write: bool) -> float:
        """Modelled device time of touching blocks ``first..last`` of a
        stage's structure (0 on DRAM). ``access_latency`` is also what feeds
        the tier manager's per-block heat, so every read and write goes by it."""
        ids = job.node[stage].block_ids
        if not ids:
            return 0.0
        last = min(last, len(ids) - 1)
        first = max(min(first, last), 0)
        share = int(nbytes * self.BYTES_SCALE_UP / (last - first + 1))
        latency, get_block = self.pool.access_latency, self.plane.get_block
        seconds = 0.0
        for k in range(first, last + 1):
            seconds += latency(get_block(ids[k]), share, write=write)
        job.penalty_s += seconds
        return seconds

    def _payload(self, job: _Job, stage: int, offset: int, length: int) -> bytes:
        """Bytes ``offset .. offset+length`` of a stage's output: what the
        producer writes there and, for files, what a read there must return."""
        pos = (job.salt + 104729 * stage + offset) % self.BLOB
        if length <= self.BLOB:
            return self.blob[pos : pos + length]
        out = bytearray()
        while length:
            take = min(length, self.BLOB)
            out += self.blob[pos : pos + take]
            pos = (pos + take) % self.BLOB
            length -= take
        return bytes(out)

    def _open(self, job: _Job, i: int) -> int:
        """Stage ``i`` starts: create its prefix chain and its structure."""
        ops = 0
        while job.created <= i:  # a stage shorter than DT may have been skipped
            a = job.created
            job.client.create_addr_prefix(job.names[a], parent=job.names[a - 1] if a else None)
            job.created += 1
            ops += 1
        ds = job.ds[i] = job.client.init_data_structure(job.names[i], job.kind)
        job.node[i] = ds.node
        job.fifo[i] = deque()
        job.written[i] = job.made[i] = job.consumed[i] = 0
        return ops + 1

    def _produce(self, job: _Job, i: int, ds: Any, now: float, rec: Recorder,
                 writes: List[int]) -> int:
        stage = job.trace.stages[i]
        frac = min((now + self.DT - stage.start) / stage.duration, 1.0)
        written = job.written[i]
        delta = min(int(stage.output_bytes * frac) - written, self.BLOB)
        if delta <= 0:
            return 0
        ops = 0
        if job.kind == "file":
            payload = self._payload(job, i, written, delta)
            t0 = now_ns()
            ds.append(payload)
            t1 = now_ns()
            writes.append(t1 - t0)
            ops = 1
        else:
            record = self.RECORD
            items = [
                self._payload(job, i, k * record, record)
                for k in range(job.made[i], (written + delta) // record)
            ]
            if items:
                t0 = now_ns()
                accepted = ds.enqueue_batch(items)
                t1 = now_ns()
                writes.append(t1 - t0)
                if accepted != len(items):
                    rec.fail(f"{job.trace.job_id}/s{i}: enqueue_batch accepted {accepted}")
                job.fifo[i].extend(items)
                job.made[i] += len(items)
                ops = 1
        job.written[i] = written + delta
        tail = len(job.node[i].block_ids) - 1
        self._device_s(job, i, tail - delta // self.high_limit, tail, delta, True)
        return ops

    def _consume(self, job: _Job, i: int, ds: Any, now: float, rec: Recorder,
                 reads: List[int], sim_reads: List[float]) -> int:
        """The running stage reads its input, stage ``i``'s output, at the
        rate that finishes it when the stage ends."""
        consumer = job.trace.stages[i + 1]
        frac = min((now + self.DT - consumer.start) / consumer.duration, 1.0)
        done = job.consumed[i]
        hl = self.high_limit
        if job.kind == "file":
            want = int(job.written[i] * frac) - done
            if want <= 0:
                return 0
            sim = self._device_s(job, i, done // hl, (done + want - 1) // hl, want, False)
            t0 = now_ns()
            got = ds.read_at(done, want)
            t1 = now_ns()
            ok = got == self._payload(job, i, done, want)
        else:
            want = int(job.made[i] * frac) - done
            if want <= 0:
                return 0
            nbytes = want * self.RECORD
            sim = self._device_s(job, i, 0, nbytes // hl, nbytes, False)
            t0 = now_ns()
            got = ds.dequeue_batch(want)
            t1 = now_ns()
            fifo = job.fifo[i]
            ok = got == [fifo.popleft() for _ in range(min(want, len(fifo)))]
        if not ok:
            rec.fail(f"{job.trace.job_id}/s{i}: wrong data at {done}")
        reads.append(t1 - t0)
        sim_reads.append(sim)
        job.consumed[i] = done + want
        return 1

    def _step_job(self, job: _Job, now: float, rec: Recorder, reads: List[int],
                  writes: List[int], renews: List[int], sim_reads: List[float]) -> int:
        """Everything one live job does in one ``DT``; returns its op count."""
        stages = job.trace.stages
        cur = job.cursor
        while stages[cur].end <= now:  # stages follow one another without a gap
            cur += 1
        job.cursor = cur
        ops = 0
        if job.client is None:
            job.client = connect(self.plane, job.trace.job_id)
        ds = job.ds.get(cur)
        if ds is None:
            ops += self._open(job, cur)
            ds = job.ds[cur]
        renewals = [job.names[cur]]
        if not ds.expired:
            ops += self._produce(job, cur, ds, now, rec, writes)
        source = job.ds.get(cur - 1)
        if source is not None:
            # the input stays leased until its consumer is done
            renewals.append(job.names[cur - 1])
            if not source.expired:
                ops += self._consume(job, cur - 1, source, now, rec, reads, sim_reads)
        t0 = now_ns()
        job.client.renew_leases(renewals)
        t1 = now_ns()
        renews.append(t1 - t0)
        return ops + 1

    def run(self, rec: Recorder) -> None:
        plane, clock, jobs = self.plane, self.clock, self.jobs
        live: List[_Job] = []
        arrived = 0
        sim_reads: List[float] = []
        self._begin_timed()  # cold start is part of the run
        for _ in range(self.steps):
            now = clock.now()
            while arrived < len(jobs) and jobs[arrived].trace.submit_time <= now:
                live.append(jobs[arrived])
                arrived += 1
            live = [job for job in live if job.trace.end_time > now]
            reads: List[int] = []
            writes: List[int] = []
            renews: List[int] = []
            ops = 0
            self.timed_hook(True)
            begin = now_ns()
            for job in live:
                try:
                    ops += self._step_job(job, now, rec, reads, writes, renews, sim_reads)
                except Exception as exc:  # noqa: BLE001 — counted, not fatal
                    rec.fail(f"{self.name} {job.trace.job_id}: {exc!r}")
                    ops += 1
            clock.advance(self.DT)
            plane.tick()
            end = now_ns()
            self.timed_hook(False)
            rec.busy_ns += end - begin
            rec.ops += ops
            rec.attempted += ops
            rec.lat_ns["read"].extend(reads)
            rec.lat_ns["write"].extend(writes)
            rec.lat_ns["renew"].extend(renews)
            allocated = plane.allocated_bytes()
            if allocated:
                rec.util.append(plane.used_bytes() / allocated)
        self._end_timed(rec)
        started = [job for job in jobs if job.client is not None]
        slowdowns = [1.0 + job.penalty_s / max(job.trace.duration, 1e-9) for job in started]
        self.extra["job_slowdown"] = (float(np.mean(slowdowns)), len(slowdowns))
        if len(sim_reads) >= P99_MIN_SAMPLES:
            self.extra["sim_read_p99_us"] = (
                percentile(sorted(sim_reads), 0.99) * 1e6, len(sim_reads)
            )

    def verify(self, rec: Recorder) -> None:
        """Files: live ones are read back, expired ones must be in the
        external store as flushed. Queues: what is left is what the oracle holds."""
        self.plane.drain_background()
        for job in self.jobs:
            for i, ds in job.ds.items():
                where = f"{job.trace.job_id}/s{i}"
                if job.kind != "file":
                    if not ds.expired:
                        rec.check(len(ds) == len(job.fifo[i]), f"{where}: live queue length")
                    continue
                expected = self._payload(job, i, 0, job.written[i])
                if not ds.expired:
                    rec.check(ds.readall() == expected, f"{where}: live file")
                elif expected:
                    rec.check(self.store.get(where) == expected, f"{where}: flushed file")

    def extra_counts(self) -> Dict[str, float]:
        return {
            "pool.spill_allocations": self.pool.spill_allocations,
            "storage.external.flushed_bytes": self.store.bytes_written,
        }


BY_NAME = {cls.name: cls for cls in (KvRead, KvGrow, RpcRemote, CacheZipf, TenantReplay)}
