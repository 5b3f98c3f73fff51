"""End-to-end telemetry: one instrumented run through the real stack.

Drives the telemetry demo workload (controller on a tiered pool, leases
and expiry, KV served over the RPC data plane) and checks the
acceptance-level properties: several distinct latency histograms are
populated, the JSONL trace contains client-side RPC spans that parent
the matching server-side spans, and the controller's counters land in
the registry.
"""

import json

from repro.telemetry import MetricsRegistry, Tracer, demo


class TestInstrumentedRun:
    def setup_method(self):
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.result = demo.run(
            quick=True, registry=self.registry, tracer=self.tracer
        )

    def test_emits_many_distinct_histograms(self):
        names = {key.split("{")[0] for key in self.registry.histograms()}
        assert len(names) >= 5, f"only {sorted(names)}"
        assert "rpc.client.latency_s" in names
        assert "rpc.server.latency_s" in names
        assert "kv.op.latency_s" in names
        assert "pool.alloc.latency_s" in names
        assert "controller.expiry_sweep.latency_s" in names

    def test_histograms_saw_traffic(self):
        hists = self.registry.histograms()
        put_lat = hists['rpc.server.latency_s{method="put"}']
        assert put_lat.count == self.result.keys_written
        assert put_lat.percentile(50) > 0

    def test_client_span_parents_server_span(self):
        spans = self.tracer.finished()
        by_id = {s.span_id: s for s in spans}
        server_spans = [s for s in spans if s.name.startswith("rpc.server.")]
        assert server_spans
        for span in server_spans:
            parent = by_id.get(span.parent_id)
            assert parent is not None, f"{span.name} has no parent in trace"
            assert parent.name.startswith("rpc.client.")
            assert parent.trace_id == span.trace_id

    def test_rpc_counters_line_up(self):
        sent = self.registry.value("rpc.client.requests", method="put")
        served = self.registry.value("rpc.server.requests", method="put")
        assert sent == served == self.result.keys_written

    def test_expiry_and_spill_instrumented(self):
        assert self.registry.value("controller.prefixes_expired") >= 1
        assert self.registry.value("leases.expirations") >= 1
        assert self.registry.value("controller.flushes") >= 1
        # The demo's DRAM tier is deliberately small: some allocations spill.
        assert self.registry.value("pool.spill.allocations") >= 1


class TestTraceFile:
    def test_jsonl_trace_written(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = demo.run(quick=True, tracer=Tracer(), trace_path=path)
        result.tracer.close()
        with open(path) as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        assert len(events) == len(result.tracer.finished())
        names = {e["name"] for e in events}
        assert "demo.workload" in names
        assert any(n.startswith("rpc.client.") for n in names)
        assert any(n.startswith("rpc.server.") for n in names)
        # Parent links survive serialisation.
        by_id = {e["span"]: e for e in events}
        server = next(e for e in events if e["name"].startswith("rpc.server."))
        assert by_id[server["parent"]]["name"].startswith("rpc.client.")
