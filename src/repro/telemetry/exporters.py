"""Exporters: Prometheus-style text rendering and JSONL trace dumps.

``render_prometheus`` emits the ubiquitous text exposition format so the
registry can be scraped/diffed/grepped with standard tooling; the JSONL
side lives on :meth:`repro.telemetry.tracer.Tracer.to_jsonl` and is
re-exported here for symmetry.
"""

from __future__ import annotations

from typing import Collection, List

from repro.telemetry.metrics import MetricRegistry

#: Prefix stamped on every exported metric name.
METRIC_PREFIX = "repro"


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels, extra: str = "") -> str:
    parts = [f'{key}="{_escape_label(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


#: Metrics that read the host clock; everything else is virtual-time.
WALL_CLOCK_METRICS = frozenset({"sim_wall_seconds_total", "store_fsync_seconds",
                                "store_recovery_seconds"})


def render_prometheus(registry: MetricRegistry,
                      prefix: str = METRIC_PREFIX,
                      skip: Collection[str] = ()) -> str:
    """The registry in Prometheus text exposition format.

    Output is deterministically ordered (by metric name, then labels), so
    two identical runs render byte-identical text modulo wall-clock
    metrics (:data:`WALL_CLOCK_METRICS`); ``skip`` names metrics to
    leave out.
    """
    lines: List[str] = []
    typed = set()
    for metric in registry.snapshot():
        if metric.name in skip:
            continue
        full = f"{prefix}_{metric.name}" if prefix else metric.name
        if full not in typed:
            lines.append(f"# TYPE {full} {metric.kind}")
            typed.add(full)
        if metric.kind == "histogram":
            for bound, cumulative in metric.cumulative_buckets():
                labels = _format_labels(
                    metric.labels, f'le="{_format_number(bound)}"')
                lines.append(f"{full}_bucket{labels} {cumulative}")
            base = _format_labels(metric.labels)
            lines.append(f"{full}_sum{base} {_format_number(metric.sum)}")
            lines.append(f"{full}_count{base} {metric.count}")
        else:
            labels = _format_labels(metric.labels)
            lines.append(f"{full}{labels} {_format_number(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricRegistry, path: str,
                     prefix: str = METRIC_PREFIX) -> None:
    """The per-trial metrics dump: everything but the wall-clock metrics,
    so same-seed runs write byte-identical files."""
    with open(path, "w") as handle:
        handle.write(render_prometheus(registry, prefix,
                                       skip=WALL_CLOCK_METRICS))


def write_jsonl(tracer, path: str) -> int:
    """Dump a tracer's retained events as JSON Lines; returns the count."""
    return tracer.dump(path)
