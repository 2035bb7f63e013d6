"""Observability: tracing, metrics, and structured logging.

Three small, dependency-free facilities the rest of the package hooks
into:

* :mod:`repro.obs.trace` — a span-based tracer. Runs, experiments,
  shard groups, and the five controller phases become nested spans;
  a finished buffer exports as JSONL or Chrome trace-event JSON
  (loadable in Perfetto / ``chrome://tracing``). Disabled by default
  and zero-cost when disabled.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and histograms. The layout cache, the experiment executor,
  and the engines publish into it.
* :mod:`repro.obs.log` — a structured (JSON lines on stderr) logger
  with ``$REPRO_LOG_LEVEL`` / ``--log-level`` control, replacing the
  ad-hoc ``print(..., file=sys.stderr)`` calls.

Request-scoped observability for the serve stack builds on the same
base:

* :mod:`repro.obs.context` — W3C ``traceparent`` trace/span ids in a
  ``contextvars`` variable, so spans and log lines stamp the current
  request's trace id without argument plumbing;
* :mod:`repro.obs.flight` — a tail-sampled flight recorder: spans of
  every in-flight request accumulate per trace, and errored / slow /
  sampled traces enter a bounded keep ring (``/debug/flight``,
  ``repro trace-grep``);
* :mod:`repro.obs.slo` — availability and p99-latency error budgets
  with multi-window burn rates, exported as gauges at scrape time
  (``repro slo-report``).

On top of those sit the perf-telemetry layers:

* :mod:`repro.obs.perf` — host fingerprints, git SHAs, and cProfile
  hooks (``--prof`` / ``trace-summary --pstats``);
* :mod:`repro.obs.export` — OpenMetrics/Prometheus text exposition of
  the metrics registry (``repro metrics-export``);
* :mod:`repro.obs.bench` — the benchmark harness, the
  ``BENCH_<suite>.json`` trajectory store, and the noise-aware
  regression comparator (``repro bench`` / ``bench-compare``).

Import convention: the three base facilities import nothing from the
rest of ``repro``, so any module — engines, cache, CLI — may import
them without cycles. :mod:`repro.obs.summary` reads phase names from
:mod:`repro.core.controller` (a leaf module), and
:mod:`repro.obs.bench` sits *above* the whole stack — its workloads
import engines and the executor lazily, inside their bodies.
"""

from .context import (
    TRACEPARENT_HEADER,
    TraceContext,
    current_trace_id,
    from_traceparent,
    new_root,
    parse_traceparent,
)
from .export import render_openmetrics, write_openmetrics
from .flight import FlightRecorder
from .hw import (
    HW_COUNTERS,
    HwMonitor,
    build_report,
    check_parity,
    publish_counters,
    render_report,
    utilization_summary,
)
from .log import configure_logging, get_logger, set_level
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    MetricsRegistry,
    get_metrics,
    observe_event_counts,
    reset_metrics,
)
from .perf import git_sha, host_fingerprint
from .slo import SLOConfig, SLOTracker, render_slo_report
from .trace import (
    PHASE_CATEGORY,
    TRACE_FORMATS,
    Tracer,
    get_tracer,
    reset_tracer,
)

__all__ = [
    "TRACEPARENT_HEADER",
    "TraceContext",
    "current_trace_id",
    "from_traceparent",
    "new_root",
    "parse_traceparent",
    "FlightRecorder",
    "SLOConfig",
    "SLOTracker",
    "render_slo_report",
    "render_openmetrics",
    "write_openmetrics",
    "git_sha",
    "host_fingerprint",
    "configure_logging",
    "get_logger",
    "set_level",
    "HW_COUNTERS",
    "HwMonitor",
    "build_report",
    "check_parity",
    "publish_counters",
    "render_report",
    "utilization_summary",
    "Counter",
    "Gauge",
    "Histogram",
    "LabeledCounter",
    "MetricsRegistry",
    "get_metrics",
    "observe_event_counts",
    "reset_metrics",
    "PHASE_CATEGORY",
    "TRACE_FORMATS",
    "Tracer",
    "get_tracer",
    "reset_tracer",
]
