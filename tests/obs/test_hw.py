"""Tests for the per-array hardware counter board.

The load-bearing property is *parity by construction*: every counter
summed over the arrays equals the run's global
:class:`~repro.events.EventLog` total, because the board is the only
place array events are counted and the run's log is read off it. The
integration tests check it on real engine runs (exact and quantized,
including the gang-bank scatter paths); the unit tests pin the
charging arithmetic those runs rely on.
"""

import numpy as np
import pytest

from repro.config import ArchConfig, TechnologyParams
from repro.core.engine import GaaSXEngine, default_interval_size
from repro.core.loader import build_layout
from repro.core.micro import MicroGaaSX
from repro.energy.ledger import EnergyLedger
from repro.errors import ConfigError
from repro.events import EventLog
from repro.graphs.generators import rmat
from repro.graphs.partition import partition_graph
from repro.obs.export import render_openmetrics
from repro.obs.hw import (
    HW_COUNTERS,
    HwMonitor,
    build_report,
    check_parity,
    publish_counters,
    render_report,
    utilization_summary,
)
from repro.obs.metrics import MetricsRegistry
from repro.xbar.mac_array import MacBank, MacCrossbar


@pytest.fixture()
def graph():
    return rmat(128, 512, seed=3, name="hw-test")


def run_monitored(graph, algorithm="pagerank", **engine_kwargs):
    monitor = HwMonitor()
    engine = MicroGaaSX(graph, hw=monitor, **engine_kwargs)
    if algorithm == "pagerank":
        _, events = engine.pagerank(iterations=2)
    elif algorithm == "bfs":
        _, events = engine.bfs(0)
    else:
        _, events = engine.sssp(0)
    return monitor, events


class TestMonitorBasics:
    def test_rejects_degenerate_limit(self):
        # The array validates its bound before taking a board slot.
        monitor = HwMonitor()
        with pytest.raises(ConfigError):
            MacCrossbar(accumulate_limit=0, hw=monitor)
        assert monitor.num_arrays == 0

    def test_register_allocates_labelled_slots(self):
        monitor = HwMonitor()
        cam0 = monitor.register("cam")
        cam1 = monitor.register("cam")
        mac0 = monitor.register("mac")
        assert (cam0, cam1, mac0) == (0, 1, 2)
        # Arrays are indexed in per-bank registration order.
        assert monitor.labels() == [
            {"bank": "cam", "array": "0"},
            {"bank": "cam", "array": "1"},
            {"bank": "mac", "array": "0"},
        ]

    def test_register_many_equals_one_at_a_time(self):
        bulk, single = HwMonitor(), HwMonitor()
        single.register("cam")
        bulk.register("cam")
        banks = ["cam", "mac"] * 9
        slots = bulk.register_many(banks, accumulate_limit=8)
        expected = [
            single.register(bank, accumulate_limit=8 * (bank == "mac"))
            for bank in banks
        ]
        assert slots.tolist() == expected
        assert bulk.labels() == single.labels()
        assert bulk.accumulate_limit == single.accumulate_limit == 8

    def test_slot_growth_preserves_counts(self):
        monitor = HwMonitor()
        slots = [monitor.register("cam") for _ in range(20)]
        for i, slot in enumerate(slots):
            monitor.add(slot, "cam_searches", i + 1)
        counts = monitor.counts("cam_searches")
        assert counts.tolist() == list(range(1, 21))

    def test_unknown_counter_rejected(self):
        with pytest.raises(ConfigError):
            HwMonitor().counts("warp_drives")

    def test_record_chunk_charges_converters(self):
        monitor = HwMonitor()
        monitor.record_macs(monitor.register("mac"), [5], 3)
        totals = monitor.totals()
        assert totals["mac_ops"] == 1
        assert totals["mac_rows_accumulated"] == 5
        assert totals["mac_cell_ops"] == 15
        assert totals["dac_conversions"] == 5
        assert totals["adc_conversions"] == 3
        assert monitor.rows_hist()[0, 5] == 1

    def test_hist_grows_beyond_limit(self):
        monitor = HwMonitor()
        monitor.record_macs(
            monitor.register("mac", accumulate_limit=16), [40], 1
        )
        hist = monitor.rows_hist()
        assert hist.shape[1] >= 41
        assert hist[0, 40] == 1


def _hit_rows(hit_counts, rows):
    hits = np.zeros((len(hit_counts), rows), dtype=bool)
    for i, count in enumerate(hit_counts):
        hits[i, :count] = True
    return hits


class TestBatchedAttribution:
    """The gang-path scatter must reproduce the per-chunk arithmetic."""

    def test_record_batch_matches_chunk_loop(self):
        hits = _hit_rows([1, 16, 17, 40, 0], rows=48)
        cols = np.arange(4)
        batched = MacCrossbar(rows=48, cols=4, accumulate_limit=16)
        batched.mac_many(np.ones(48), hits, col_mask=cols)
        looped = MacCrossbar(rows=48, cols=4, accumulate_limit=16)
        for row in hits:
            looped.mac(np.ones(48), row_mask=row, col_mask=cols)
        assert batched.hw.totals() == looped.hw.totals()
        assert np.array_equal(batched.hw.rows_hist(), looped.hw.rows_hist())

    def test_record_batch_many_scatters_per_slot(self):
        monitor = HwMonitor()
        bank = MacBank(
            [MacCrossbar(rows=32, cols=2, hw=monitor) for _ in range(2)]
        )
        bank.mac_rowwise_many(
            np.array([0, 1, 0]),
            np.ones((3, 2)),
            _hit_rows([16, 3, 2], rows=32),
        )
        ops = monitor.counts("mac_ops")
        assert ops.tolist() == [2, 1]  # slot 0: one full + one partial
        rows = monitor.counts("mac_rows_accumulated")
        assert rows.tolist() == [18, 3]
        hist = monitor.rows_hist()
        assert hist[0, 16] == 1 and hist[0, 2] == 1
        assert hist[1, 3] == 1

    def test_record_batch_many_shape_mismatch(self):
        monitor = HwMonitor()
        bank = MacBank([MacCrossbar(rows=8, cols=2, hw=monitor)])
        with pytest.raises(ConfigError):
            bank.mac_rowwise_many(
                np.array([0]), np.ones((2, 2)), np.ones((2, 8), dtype=bool)
            )
        assert monitor.totals()["mac_ops"] == 0

    def test_add_many_broadcasts_scalar(self):
        monitor = HwMonitor()
        monitor.register("cam")
        monitor.register("cam")
        monitor.add(np.array([0, 1, 1]), "cam_searches", 1)
        assert monitor.counts("cam_searches").tolist() == [1, 2]


class TestTimeline:
    def test_end_step_bins_operation_deltas(self):
        monitor = HwMonitor()
        cam = monitor.register("cam")
        mac = monitor.register("mac")
        monitor.add(cam, "cam_searches", 3)
        first = monitor.end_step()
        monitor.record_macs(mac, [2], 1)
        second = monitor.end_step()
        assert first["ops"] == [3, 0]
        assert first["active_frac"] == pytest.approx(0.5)
        assert second["ops"] == [0, 1]
        assert len(monitor.timeline) == 2

    def test_empty_monitor_step(self):
        row = HwMonitor().end_step()
        assert row["total_ops"] == 0
        assert row["active_frac"] == 0.0


@pytest.mark.parametrize("algorithm", ["pagerank", "bfs", "sssp"])
@pytest.mark.parametrize("quantized", [False, True])
class TestEngineParity:
    """Per-array sums equal the global EventLog on real runs."""

    def test_parity(self, graph, algorithm, quantized):
        monitor, events = run_monitored(
            graph, algorithm, quantized=quantized
        )
        verdict = check_parity(monitor, events)
        assert verdict["ok"], verdict["mismatches"]

    def test_occupancy_matches_event_log(self, graph, algorithm, quantized):
        monitor, events = run_monitored(
            graph, algorithm, quantized=quantized
        )
        limit = monitor.accumulate_limit
        global_stats = events.rows_occupancy(limit)
        hist = monitor.rows_hist().sum(axis=0)
        ops = hist.sum()
        mean = (hist * np.arange(hist.size)).sum() / ops if ops else 0.0
        assert mean == pytest.approx(global_stats["mean_rows"])


class TestSlotOrder:
    """``repro hw-report`` rows follow the board's slot order.

    The micro engine registers a ``cam`` then a ``mac`` slot per
    crossbar, in crossbar order, so a report lists ``cam/0, mac/0,
    cam/1, ...`` and each array's index is its crossbar id.
    """

    @pytest.mark.parametrize(
        "algorithm,order", [("pagerank", "col"), ("bfs", "row"),
                            ("sssp", "row")]
    )
    def test_slots_alternate_cam_mac_per_crossbar(
        self, graph, algorithm, order
    ):
        monitor, _ = run_monitored(graph, algorithm)
        config = ArchConfig()
        layout = build_layout(
            partition_graph(graph, default_interval_size(graph.num_vertices)),
            order, config,
        )
        assert layout.num_xbars > 1
        assert monitor.labels() == [
            {"bank": bank, "array": str(x)}
            for x in range(layout.num_xbars)
            for bank in ("cam", "mac")
        ]
        # Crossbar x's edges are programmed into cam/x.
        assert np.array_equal(
            monitor.counts("cam_row_writes")[0::2], layout.rows_per_xbar()
        )
        assert not monitor.counts("cam_row_writes")[1::2].any()


class TestNonDefaultLimit:
    """A MAC is chunked once, at the array's own accumulation limit.

    A default monitor on a limit-8 engine must still balance: the board
    takes its bound from the registered MAC arrays and never re-chunks.
    """

    CONFIG = ArchConfig(mac_accumulate_limit=8)

    @pytest.fixture(scope="class")
    def limit_graph(self):
        return rmat(512, 6000, seed=1, name="hw-limit")

    @staticmethod
    def run(engine, algorithm):
        if algorithm == "pagerank":
            return engine.pagerank(iterations=2)
        return engine.sssp(0)

    @pytest.mark.parametrize("algorithm", ["pagerank", "sssp"])
    def test_limit_8_parity_and_engine_equality(
        self, limit_graph, algorithm
    ):
        monitor = HwMonitor()
        micro = MicroGaaSX(limit_graph, config=self.CONFIG, hw=monitor)
        _, events = self.run(micro, algorithm)
        verdict = check_parity(monitor, events)
        assert verdict["ok"], verdict["mismatches"]
        engine = GaaSXEngine(limit_graph, config=self.CONFIG)
        assert events.counters_equal(
            self.run(engine, algorithm).stats.events
        )
        assert monitor.accumulate_limit == 8

    def test_one_monitor_across_two_runs(self, limit_graph):
        monitor = HwMonitor()
        micro = MicroGaaSX(limit_graph, config=self.CONFIG, hw=monitor)
        engine = GaaSXEngine(limit_graph, config=self.CONFIG)
        logs = []
        for algorithm in ("pagerank", "sssp"):
            _, events = self.run(micro, algorithm)
            assert events.counters_equal(
                self.run(engine, algorithm).stats.events
            ), algorithm
            logs.append(events)
        # The board saw both runs: it balances against their sum.
        both = EventLog().merge(logs[0]).merge(logs[1])
        assert check_parity(monitor, both)["ok"]


class TestParityDetection:
    def test_missing_mirror_detected(self, graph):
        monitor, events = run_monitored(graph)
        # Simulate an event counted outside the board.
        events.cam_searches += 1
        verdict = check_parity(monitor, events)
        assert not verdict["ok"]
        assert "cam_searches" in verdict["mismatches"]

    def test_hist_divergence_detected(self):
        monitor = HwMonitor()
        monitor.record_macs(monitor.register("mac"), [4], 1)
        events = EventLog()
        events.record_mac(5, cols=1)  # same op count, different rows bin
        verdict = check_parity(monitor, events)
        assert "mac_rows_hist" in verdict["mismatches"]


class TestEnergyAttribution:
    def test_per_array_energy_sums_to_ledger(self, graph):
        monitor, events = run_monitored(graph)
        tech = TechnologyParams()
        breakdown = EnergyLedger(tech).price(events, runtime_s=0.0)
        per_array = monitor.energy(tech)
        for key in ("cam_j", "mac_j", "write_j", "adc_j", "dac_j"):
            attributed = sum(entry[key] for entry in per_array)
            assert attributed == pytest.approx(
                getattr(breakdown, key)
            ), key

    def test_phase_rollup_covers_every_category(self):
        monitor = HwMonitor()
        monitor.record_macs(monitor.register("mac"), [4], 2)
        (entry,) = monitor.energy()
        assert entry["total_j"] == pytest.approx(
            sum(entry["phases"].values())
        )
        assert entry["total_j"] == pytest.approx(
            entry["cam_j"] + entry["mac_j"] + entry["write_j"]
            + entry["adc_j"] + entry["dac_j"]
        )


class TestReport:
    def test_report_totals_and_parity(self, graph):
        monitor, events = run_monitored(graph)
        report = build_report(monitor, events)
        assert report["parity"]["ok"]
        assert report["totals"] == monitor.totals()
        assert len(report["arrays"]) == monitor.num_arrays
        # JSON-serializable end to end.
        import json

        json.dumps(report)

    def test_render_contains_heatmap_and_verdict(self, graph):
        monitor, events = run_monitored(graph)
        text = render_report(build_report(monitor, events))
        assert "occupancy heatmap" in text
        assert "parity: ok" in text
        assert "imbalance=" in text
        assert "timeline:" in text

    def test_render_flags_parity_failure(self, graph):
        monitor, events = run_monitored(graph)
        events.mac_ops += 5
        text = render_report(build_report(monitor, events))
        assert "parity: FAILED" in text

    def test_utilization_summary_empty_monitor(self):
        summary = utilization_summary(HwMonitor())
        assert summary["arrays"] == 0
        assert summary["imbalance"] == 0.0
        assert summary["busiest"] is None

    def test_utilization_summary_balanced(self):
        monitor = HwMonitor()
        for _ in range(4):
            monitor.register("cam")
        for slot in range(4):
            monitor.add(slot, "cam_searches", 10)
        summary = utilization_summary(monitor)
        assert summary["imbalance"] == pytest.approx(1.0)
        assert summary["active_frac"] == pytest.approx(1.0)
        assert summary["cv"] == pytest.approx(0.0)


class TestPublish:
    def test_labelled_series_render(self, graph):
        monitor, _ = run_monitored(graph)
        registry = MetricsRegistry()
        publish_counters(monitor, registry)
        text = render_openmetrics(registry)
        assert "# TYPE repro_hw_cam_searches counter" in text
        assert 'repro_hw_cam_searches_total{bank="cam",array="0"}' in text

    def test_metrics_sums_match_monitor(self, graph):
        monitor, _ = run_monitored(graph)
        registry = MetricsRegistry()
        publish_counters(monitor, registry)
        totals = monitor.totals()
        snapshot = registry.snapshot()
        for name in HW_COUNTERS:
            if totals[name]:
                assert snapshot[f"hw.{name}"] == totals[name]

    def test_zero_counters_not_materialized(self):
        monitor = HwMonitor()
        monitor.register("cam")
        registry = MetricsRegistry()
        publish_counters(monitor, registry)
        assert registry.snapshot() == {}
