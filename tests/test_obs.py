"""The observability subsystem: registry semantics, percentile identity
with the old bench math, exposition validity, fixed-clock determinism,
spans, the MetricsRequest/MetricsReply envelopes, and metric continuity
across PricingService recovery."""

from __future__ import annotations

import json
import math

import pytest
from promparse import ExpositionError, parse_exposition

from repro import obs
from repro.cloudsim import OptimizationCatalog
from repro.fleet import FleetEngine
from repro.gateway import (
    AdvanceSlots,
    MetricsReply,
    MetricsRequest,
    PricingService,
    SubmitBids,
    from_dict,
    to_dict,
)
from repro.obs import (
    DEFAULT_MAX_SERIES,
    MetricsRegistry,
    SpanRecorder,
    read_spans,
    render_prometheus,
)
from repro.workloads.fleet import fleet_batches, fleet_game_costs


def ticker(step: float = 1.0, start: float = 0.0):
    """A deterministic clock: start, start+step, start+2*step, ..."""
    state = {"now": start - step}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


@pytest.fixture(autouse=True)
def _clean_global_registry():
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.enable()


# --------------------------------------------------------------- registry --


class TestRegistrySemantics:
    def test_counter_counts_and_refuses_to_go_down(self):
        registry = MetricsRegistry()
        hits = registry.counter("t_hits_total", "hits", ("tier",))
        hits.labels(tier="l1").inc()
        hits.labels(tier="l1").inc(2.5)
        hits.labels(tier="l2").inc(4)
        assert hits.labels(tier="l1").value == 3.5
        assert hits.labels(tier="l2").value == 4.0
        with pytest.raises(ValueError, match="only go up"):
            hits.labels(tier="l1").inc(-1)

    def test_gauge_goes_both_ways(self):
        registry = MetricsRegistry()
        depth = registry.gauge("t_depth", "queue depth")
        depth.set(7)
        depth.inc(3)
        depth.dec(9)
        assert depth.value == 1.0
        depth.set(-2.5)
        assert depth.value == -2.5

    def test_labelled_family_rejects_wrong_and_default_access(self):
        registry = MetricsRegistry()
        c = registry.counter("t_total", "", ("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            c.labels(knd="x")
        with pytest.raises(ValueError, match="takes labels"):
            c.labels()
        with pytest.raises(ValueError, match="address a series"):
            c.inc()  # label-less convenience needs a label-less family

    def test_invalid_names_and_labels_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("t_ok", "", ("le gal",))
        with pytest.raises(ValueError, match="duplicate label names"):
            registry.counter("t_ok2", "", ("a", "a"))

    def test_cardinality_bound_is_an_error_not_a_clamp(self):
        registry = MetricsRegistry()
        c = registry.counter("t_bound", "", ("user",), max_series=3)
        for i in range(3):
            c.labels(user=f"u{i}").inc()
        with pytest.raises(ValueError, match="cardinality bound"):
            c.labels(user="u3")
        assert registry.counter("t_free", "").max_series == DEFAULT_MAX_SERIES

    def test_register_is_get_or_create_and_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("t_same", "one", ("k",))
        again = registry.counter("t_same", "different help ok", ("k",))
        assert again is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_same")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("t_same", "", ("other",))
        h = registry.histogram("t_h_seconds", buckets=(1.0, 2.0))
        assert registry.histogram("t_h_seconds", buckets=(1.0, 2.0)) is h
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("t_h_seconds", buckets=(1.0, 3.0))

    def test_histogram_bucket_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("t_empty", buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("t_unsorted", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("t_dup", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="implicit"):
            registry.histogram("t_inf", buckets=(1.0, math.inf))

    def test_reset_drops_series_but_keeps_registrations(self):
        registry = MetricsRegistry()
        c = registry.counter("t_keep_total", "", ("k",))
        c.labels(k="a").inc(5)
        registry.reset()
        assert registry.counter("t_keep_total", "", ("k",)) is c
        assert registry.snapshot()["t_keep_total"]["series"] == []
        assert c.labels(k="a").value == 0.0  # a fresh child

    def test_disabled_registry_mutates_nothing_and_skips_the_clock(self):
        def forbidden_clock() -> float:
            raise AssertionError("a disabled timer must never read the clock")

        registry = MetricsRegistry(clock=forbidden_clock)
        registry.enabled = False
        c = registry.counter("t_off_total")
        g = registry.gauge("t_off")
        h = registry.histogram("t_off_seconds")
        c.inc(10)
        g.set(10)
        h.observe(10)
        with h.time():
            pass
        assert c.value == 0.0 and g.value == 0.0 and h.count == 0
        registry.enabled = True
        with pytest.raises(AssertionError, match="never read"):
            with h.time():
                pass

    def test_wire_form_is_tuples_and_scalars_only(self):
        registry = MetricsRegistry()
        registry.counter("t_a_total", "", ("k",)).labels(k="x").inc(2)
        registry.histogram("t_b_seconds", buckets=(0.5, 1.0)).observe(0.7)
        wire = registry.wire()
        assert isinstance(wire, tuple)

        def all_plain(value) -> bool:
            if isinstance(value, tuple):
                return all(all_plain(v) for v in value)
            return isinstance(value, (str, int, float))

        assert all_plain(wire)
        entries = {entry[0]: entry for entry in wire}
        name, kind, labels, value = entries["t_a_total"]
        assert kind == "counter" and labels == (("k", "x"),) and value == 2.0
        _, kind, labels, (buckets, counts, total, count) = entries["t_b_seconds"]
        assert kind == "histogram" and buckets == (0.5, 1.0)
        assert counts == (0, 1, 0) and total == 0.7 and count == 1


# ------------------------------------------------------------- percentiles --


class TestPercentileIdentity:
    """The property that let bench_server.py swap its sorted-list math
    for the shared histogram: on samples that sit on bucket bounds the
    two answer identically, at every rank."""

    @staticmethod
    def _old_math(samples, q):
        merged = sorted(samples)
        return merged[min(len(merged) - 1, int(len(merged) * q))]

    def test_identical_to_sorted_list_on_a_fixed_sample(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_lat_seconds")
        bounds = histogram.buckets
        fixed = (
            [bounds[2]] * 10 + [bounds[5]] * 49 + [bounds[11]] * 40
            + [bounds[20]] * 1
        )
        for value in fixed:
            histogram.observe(value)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert histogram.percentile(q) == self._old_math(fixed, q), q

    def test_p50_matches_the_old_len_over_two_rule(self):
        # bench_server's p50 was merged[len // 2]; the shared rank rule
        # int(len * 0.5) is the same index at every length.
        for n in (1, 2, 3, 10, 101):
            assert min(n - 1, int(n * 0.5)) == min(n - 1, n // 2)

    def test_overflow_rank_returns_the_tracked_max(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_over_seconds", buckets=(1.0,))
        histogram.observe(5.0)
        histogram.observe(250.0)
        assert histogram.percentile(0.99) == 250.0

    def test_empty_histogram_answers_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram("t_none_seconds").percentile(0.5) == 0.0

    def test_q_out_of_range_raises(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_q_seconds")
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            histogram.percentile(1.5)


# -------------------------------------------------------------- exposition --


class TestPrometheusExposition:
    def test_render_parses_as_strict_exposition(self):
        registry = MetricsRegistry(clock=ticker(0.001))
        hits = registry.counter("t_hits_total", "Cache hits.", ("tier",))
        hits.labels(tier="l1").inc(3)
        hits.labels(tier="l2").inc(1)
        registry.gauge("t_depth", "Depth.").set(4)
        lat = registry.histogram("t_lat_seconds", "Latency.")
        for _ in range(7):
            with lat.time():
                pass
        types, samples = parse_exposition(render_prometheus(registry))
        assert types == {
            "t_depth": "gauge",
            "t_hits_total": "counter",
            "t_lat_seconds": "histogram",
        }
        by_name = {}
        for sample in samples:
            by_name.setdefault(sample.name, []).append(sample)
        assert [s.value for s in by_name["t_hits_total"]] == [3.0, 1.0]
        (count,) = by_name["t_lat_seconds_count"]
        assert count.value == 7.0
        infs = [s for s in by_name["t_lat_seconds_bucket"]
                if s.labels["le"] == "+Inf"]
        assert infs[0].value == 7.0

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        c = registry.counter("t_esc_total", "", ("path",))
        c.labels(path='a"b\\c\nd').inc()
        types, samples = parse_exposition(render_prometheus(registry))
        assert samples[0].labels["path"] == 'a"b\\c\nd'

    def test_the_parser_itself_rejects_invalid_documents(self):
        with pytest.raises(ExpositionError, match="end with a newline"):
            parse_exposition("t_total 1")
        with pytest.raises(ExpositionError, match="before its TYPE"):
            parse_exposition("t_total 1\n")
        with pytest.raises(ExpositionError, match="unknown kind"):
            parse_exposition("# TYPE t_total flavor\n")
        with pytest.raises(ExpositionError, match="unparseable value"):
            parse_exposition("# TYPE t_total counter\nt_total one\n")
        with pytest.raises(ExpositionError, match="cumulative"):
            parse_exposition(
                "# TYPE t_h histogram\n"
                't_h_bucket{le="1"} 5\n'
                't_h_bucket{le="+Inf"} 3\n'
                "t_h_sum 1\n"
                "t_h_count 3\n"
            )
        with pytest.raises(ExpositionError, match="end at le"):
            parse_exposition(
                "# TYPE t_h histogram\n"
                't_h_bucket{le="1"} 3\n'
                "t_h_sum 1\nt_h_count 3\n"
            )

    def test_global_render_covers_the_instrumented_stack(self):
        service = PricingService({"idx": 40.0}, horizon=3)
        service.dispatch(SubmitBids(tenant="a", bids=(("idx", 1, (50.0,)),)))
        service.dispatch(AdvanceSlots(slots=1))
        types, samples = parse_exposition(obs.render())
        assert types["repro_dispatch_total"] == "counter"
        assert types["repro_dispatch_seconds"] == "histogram"
        kinds = {
            s.labels["kind"] for s in samples if s.name == "repro_dispatch_total"
        }
        assert {"SubmitBids", "AdvanceSlots"} <= kinds

    def test_fleet_period_observes_the_slot_timer_once_per_slot(self):
        slots = obs.REGISTRY.histogram("repro_fleet_slot_advance_seconds")
        catalog = OptimizationCatalog.from_costs(fleet_game_costs(2012, 5, 30.0))
        engine = FleetEngine(catalog, 6)
        engine.ingest_many(fleet_batches(13, 80, 5, 6, 3))
        before = slots.count
        engine.run_to_end()
        assert slots.count == before + 6


# ------------------------------------------------------------- determinism --


class TestFixedClockDeterminism:
    @staticmethod
    def _run_workload(registry: MetricsRegistry) -> None:
        requests = registry.counter("t_req_total", "requests", ("endpoint",))
        depth = registry.gauge("t_depth", "queue")
        latency = registry.histogram("t_lat_seconds", "latency", ("endpoint",))
        for i in range(50):
            endpoint = f"/v1/{'bids' if i % 3 else 'slots'}"
            requests.labels(endpoint=endpoint).inc()
            depth.set(i % 7)
            with latency.labels(endpoint=endpoint).time():
                pass

    def test_two_identical_runs_snapshot_bit_identically(self):
        first = MetricsRegistry(clock=ticker(0.0017))
        second = MetricsRegistry(clock=ticker(0.0017))
        self._run_workload(first)
        self._run_workload(second)
        a, b = first.snapshot(), second.snapshot()
        assert a == b
        # Bit-identical, not merely approximately equal: the snapshots
        # serialize to the same bytes.
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert first.wire() == second.wire()
        assert render_prometheus(first) == render_prometheus(second)

    def test_different_clocks_show_up_in_the_snapshot(self):
        first = MetricsRegistry(clock=ticker(0.001))
        second = MetricsRegistry(clock=ticker(0.002))
        self._run_workload(first)
        self._run_workload(second)
        assert first.snapshot() != second.snapshot()

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry(clock=ticker())
        self._run_workload(registry)
        assert json.loads(json.dumps(registry.snapshot())) is not None


# ------------------------------------------------------------------- spans --


class TestSpans:
    def test_span_records_begin_end_elapsed_and_fields(self):
        spans = SpanRecorder(clock=ticker(1.0))
        with spans.span("checkpoint", seq=9):
            pass
        (row,) = spans.rows()
        assert row["span"] == "checkpoint" and row["seq"] == 9
        assert row["elapsed"] == row["end"] - row["begin"] == 1.0

    def test_span_records_even_when_the_body_raises(self):
        spans = SpanRecorder(clock=ticker(1.0))
        with pytest.raises(RuntimeError):
            with spans.span("recover"):
                raise RuntimeError("mid-recovery crash")
        assert spans.rows()[0]["span"] == "recover"

    def test_reserved_fields_are_rejected(self):
        spans = SpanRecorder(clock=ticker())
        with pytest.raises(ValueError, match="reserved"):
            with spans.span("x", elapsed=1.0):
                pass

    def test_disabled_recorder_records_nothing_and_skips_the_clock(self):
        def forbidden_clock() -> float:
            raise AssertionError("clock")

        spans = SpanRecorder(clock=forbidden_clock)
        spans.enabled = False
        with spans.span("quiet"):
            pass
        assert spans.rows() == ()

    def test_ring_is_bounded(self):
        spans = SpanRecorder(maxlen=3, clock=ticker())
        for i in range(10):
            with spans.span(f"s{i}"):
                pass
        assert [r["span"] for r in spans.rows()] == ["s7", "s8", "s9"]

    def test_jsonl_mirror_round_trips(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        spans = SpanRecorder(path, clock=ticker(0.5))
        with spans.span("rotate", segment="wal-1-9.jsonl"):
            pass
        with spans.span("checkpoint", seq=4):
            pass
        rows = read_spans(path)
        assert [r["span"] for r in rows] == ["rotate", "checkpoint"]
        assert rows == list(spans.rows())

    def test_service_checkpoint_and_recover_emit_spans(self, tmp_path):
        obs.SPANS.clear()
        service = PricingService({"idx": 40.0}, horizon=3)
        service.attach_wal(tmp_path / "wal")
        service.dispatch(SubmitBids(tenant="a", bids=(("idx", 1, (50.0,)),)))
        service.checkpoint()
        service.close()
        recovered = PricingService.recover(tmp_path / "wal")
        recovered.close()
        names = [row["span"] for row in obs.SPANS.rows()]
        assert "checkpoint" in names and "recover" in names


# --------------------------------------------------------------- envelopes --


class TestMetricsEnvelopes:
    def test_metrics_request_round_trips(self):
        wire = json.loads(json.dumps(to_dict(MetricsRequest())))
        assert from_dict(wire) == MetricsRequest()

    def test_dispatch_returns_the_registry_wire_form(self):
        service = PricingService({"idx": 40.0}, horizon=3)
        service.dispatch(SubmitBids(tenant="a", bids=(("idx", 1, (50.0,)),)))
        reply = service.dispatch(MetricsRequest())
        assert isinstance(reply, MetricsReply)
        names = {entry[0] for entry in reply.metrics}
        assert "repro_dispatch_total" in names
        # The reply mirrors the registry exactly (modulo the metrics the
        # in-flight MetricsRequest itself bumped before the read).
        entries = {
            (e[0], e[2]): e for e in obs.REGISTRY.wire()
        }
        for entry in reply.metrics:
            name, kind, labels, _value = entry
            assert (name, labels) in entries
            assert entries[(name, labels)][1] == kind

    def test_metrics_reply_round_trips_exactly(self):
        service = PricingService({"idx": 40.0}, horizon=3)
        service.dispatch(SubmitBids(tenant="a", bids=(("idx", 1, (50.0,)),)))
        service.dispatch(AdvanceSlots(slots=1))
        reply = service.dispatch(MetricsRequest())
        wire = json.loads(json.dumps(to_dict(reply)))
        assert from_dict(wire) == reply

    def test_metrics_request_is_wal_replay_safe(self, tmp_path):
        service = PricingService({"idx": 40.0}, horizon=3)
        service.attach_wal(tmp_path / "wal")
        service.dispatch(SubmitBids(tenant="a", bids=(("idx", 1, (50.0,)),)))
        assert isinstance(service.dispatch(MetricsRequest()), MetricsReply)
        service.dispatch(AdvanceSlots(slots=3))
        report = service.report()
        service.close()
        recovered = PricingService.recover(tmp_path / "wal")
        assert recovered.report().implemented == report.implemented
        assert recovered.report().ledger == report.ledger
        recovered.close()


# -------------------------------------------------------------- continuity --


class TestRecoveryContinuity:
    def test_dispatch_counters_never_go_backwards_across_recover(
        self, tmp_path
    ):
        family = obs.REGISTRY.counter(
            "repro_dispatch_total", "", ("kind",)
        )
        service = PricingService({"idx": 40.0}, horizon=4)
        service.attach_wal(tmp_path / "wal")
        service.dispatch(SubmitBids(tenant="a", bids=(("idx", 1, (50.0,)),)))
        service.dispatch(AdvanceSlots(slots=1))
        before = family.labels(kind="SubmitBids").value
        advance_before = family.labels(kind="AdvanceSlots").value
        assert before >= 1 and advance_before >= 1
        service.close()

        recovered = PricingService.recover(tmp_path / "wal")
        # Recovery replays the WAL through dispatch: the process-wide
        # counter keeps climbing, it never resets with the service.
        mid = family.labels(kind="SubmitBids").value
        assert mid >= before
        recovered.dispatch(
            SubmitBids(tenant="b", bids=(("idx", 2, (50.0,)),))
        )
        assert family.labels(kind="SubmitBids").value > mid
        recovered.close()
