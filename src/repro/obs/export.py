"""Canonical metrics export: JSONL (round-trippable) and CSV.

The JSONL form is the interchange format: one canonical JSON object
per line (sorted keys, no whitespace variance), one line per series,
lines ordered by the registry's canonical (name, labels) order.  Equal
registries therefore serialize to byte-identical text — the property
the parallel-merge determinism tests pin — and
:func:`registry_from_jsonl` reconstructs an equal registry from the
text (property-tested round trip in ``tests/test_obs_export.py``).

The CSV form is a flat convenience view for spreadsheets: one row per
series with the labels folded into a single column; histograms carry
their buckets as ``bound:count`` pairs.  CSV is export-only.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.obs.canonical import (
    canonical_jsonl,
    read_jsonl,
    require_fields,
    write_text,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSeries,
    MetricsRegistry,
)

#: Envelope stamp on every exported line.
METRICS_KIND = "repro.obs/metric"


def series_to_dict(series: MetricSeries) -> Dict[str, Any]:
    """JSON-compatible form of one series (kind, name, labels, values)."""
    data: Dict[str, Any] = {
        "kind": METRICS_KIND,
        "type": series.kind,
        "name": series.name,
        "labels": dict(series.labels),
    }
    data.update(series.value_dict())
    return data


def registry_to_jsonl(registry: MetricsRegistry) -> str:
    """The whole registry as canonical JSON lines (sorted keys/series).

    Framed by the shared :mod:`repro.obs.canonical` encoder — the same
    one the trace and span exporters use — so all three line formats
    are pinned by one definition (and one golden test).
    """
    return canonical_jsonl(
        series_to_dict(series) for series in registry.series()
    )


def write_metrics_jsonl(
    registry: MetricsRegistry, path: Union[str, Path]
) -> Path:
    """Write the canonical JSONL export; returns the written path."""
    return write_text(path, registry_to_jsonl(registry))


#: type → the value fields a line of that type must carry.
_VALUE_FIELDS = {
    "counter": ("value",),
    "gauge": ("value",),
    "histogram": ("bounds", "buckets", "count", "sum", "min", "max"),
}


def _series_from_dict(data: Dict[str, Any]) -> MetricSeries:
    """Rebuild one series from its exported dict."""
    if data.get("kind") != METRICS_KIND:
        raise ValueError(
            f"not a metrics line (kind={data.get('kind')!r})"
        )
    metric_type = data.get("type")
    if metric_type not in _VALUE_FIELDS:
        raise ValueError(f"unknown metric type {metric_type!r}")
    require_fields(data, ("name", "labels", *_VALUE_FIELDS[metric_type]))
    name = data["name"]
    labels = tuple(sorted((str(k), str(v)) for k, v in data["labels"].items()))
    if metric_type == "counter":
        counter = Counter(name, labels)
        counter.value = data["value"]
        return counter
    if metric_type == "gauge":
        gauge = Gauge(name, labels)
        gauge.value = data["value"]
        gauge.written = bool(data.get("written", True))
        return gauge
    histogram = Histogram(name, labels, tuple(data["bounds"]))
    histogram.bucket_counts = list(data["buckets"])
    histogram.count = data["count"]
    histogram.sum = data["sum"]
    histogram.min = data["min"]
    histogram.max = data["max"]
    return histogram


def registry_from_jsonl(text: str) -> MetricsRegistry:
    """Rebuild a registry from :func:`registry_to_jsonl` output."""
    registry = MetricsRegistry()
    for line_number, series in read_jsonl(text, "metrics", _series_from_dict):
        existing = registry.get(series.name, dict(series.labels))
        if existing is not None:
            raise ValueError(
                f"metrics line {line_number}: duplicate series "
                f"{series.name!r}{dict(series.labels)}"
            )
        registry._series[(series.name, series.labels)] = series
    return registry


def load_metrics_jsonl(path: Union[str, Path]) -> MetricsRegistry:
    """Read one JSONL metrics file back into a registry."""
    return registry_from_jsonl(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# CSV (export-only flat view).
# ----------------------------------------------------------------------

#: Column layout of the CSV export, fixed for diffability.
CSV_COLUMNS = (
    "name", "type", "labels", "value", "count", "sum", "min", "max", "buckets",
)


def _labels_column(series: MetricSeries) -> str:
    return ";".join(f"{k}={v}" for k, v in series.labels)


def registry_to_csv(registry: MetricsRegistry) -> str:
    """The registry as a flat CSV table (one row per series)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for series in registry.series():
        row: List[Any] = [series.name, series.kind, _labels_column(series)]
        if isinstance(series, (Counter, Gauge)):
            row += [series.value, "", "", "", "", ""]
        elif isinstance(series, Histogram):
            buckets = ";".join(
                f"{bound}:{count}"
                for bound, count in zip(series.bounds, series.bucket_counts)
            ) + f";inf:{series.bucket_counts[-1]}"
            row += ["", series.count, series.sum, series.min, series.max, buckets]
        else:  # pragma: no cover - exhaustive over the series types
            raise TypeError(f"unknown series type {type(series).__name__}")
        writer.writerow(row)
    return buffer.getvalue()


def write_metrics_csv(
    registry: MetricsRegistry, path: Union[str, Path]
) -> Path:
    """Write the CSV export; returns the written path."""
    return write_text(path, registry_to_csv(registry))
