"""Prometheus text exposition for a :class:`~repro.obs.metrics.MetricsRegistry`.

Renders the registry's counters, gauges, and log-scale latency
histograms in the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_
(version 0.0.4) that every Prometheus-compatible scraper understands,
so the experiment service's ``/metrics`` endpoint can feed a real
monitoring stack without new dependencies.

Mapping rules:

* Dot-namespaced names become underscore metric names with a
  ``repro_`` prefix: ``service.tier.memo`` → ``repro_service_tier_memo``.
  Counters additionally get the conventional ``_total`` suffix.
* :class:`~repro.obs.metrics.LatencyHistogram`'s geometric buckets are
  exported cumulatively.  Each occupied bucket with index ``i`` has
  upper bound ``exp((i + 1) * log(2)/sub_buckets_per_octave)``; the
  dedicated zero bucket exports as ``le="0"``, and ``le="+Inf"``
  always equals ``_count``.  ``_sum`` is the histogram's exact total.
* HELP text and label values are escaped per the format's rules
  (backslash, newline, and — for label values — double quote).

:func:`validate_exposition` is a strict line-level parser used by the
tests and the CI telemetry smoke job to prove the endpoint emits
well-formed exposition (including per-label-set bucket cumulativity).
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import LatencyHistogram, MetricsRegistry


__all__ = [
    "CONTENT_TYPE",
    "histogram_buckets",
    "prometheus_name",
    "render_prometheus",
    "validate_exposition",
]

#: The Content-Type a conforming scrape response carries.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)(?: [0-9]+)?$"
)


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Map a dot-namespaced instrument name to a Prometheus metric name."""
    flat = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    candidate = f"{prefix}_{flat}" if prefix else flat
    if not _NAME_OK.match(candidate):
        candidate = "_" + candidate
    return candidate


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def histogram_buckets(hist: LatencyHistogram) -> List[Tuple[float, int]]:
    """Cumulative ``(upper_bound, count)`` pairs for one histogram.

    Bounds are the exact geometric bucket upper edges the histogram
    already uses, so exposition loses no precision beyond the bucket
    width itself.  The terminal ``(inf, count)`` entry is always
    present.
    """
    out: List[Tuple[float, int]] = []
    cumulative = 0
    if hist._zero_count:
        cumulative += hist._zero_count
        out.append((0.0, cumulative))
    for index in sorted(hist._buckets):
        cumulative += hist._buckets[index]
        out.append((math.exp((index + 1) * hist._log_growth), cumulative))
    out.append((math.inf, hist.count))
    return out


def render_prometheus(
    registry: MetricsRegistry,
    help_text: Optional[Dict[str, str]] = None,
) -> str:
    """The whole registry as one exposition document (trailing newline).

    ``help_text`` optionally maps *original* (dot-namespaced) instrument
    names to HELP strings; instruments without an entry get a generic
    one naming their origin.
    """
    helps = help_text or {}
    lines: List[str] = []
    declared: set = set()

    def _declare(metric: str, kind: str, help_line: str) -> None:
        if metric in declared:
            return
        declared.add(metric)
        lines.append(f"# HELP {metric} {_escape_help(help_line)}")
        lines.append(f"# TYPE {metric} {kind}")

    for name, value in registry.counters.as_dict().items():
        metric = prometheus_name(name) + "_total"
        _declare(metric, "counter",
                 helps.get(name, f"Counter {name} from the repro simulator."))
        lines.append(f"{metric} {_format_value(value)}")

    for name, value in registry.gauges().items():
        metric = prometheus_name(name)
        _declare(metric, "gauge",
                 helps.get(name, f"Gauge {name} from the repro simulator."))
        lines.append(f"{metric} {_format_value(value)}")

    for name, hist in registry.histograms().items():
        metric = prometheus_name(name)
        _declare(metric, "histogram",
                 helps.get(name,
                           f"Latency histogram {name} from the repro "
                           f"simulator."))
        for bound, cumulative in histogram_buckets(hist):
            le = _escape_label_value(_format_value(bound))
            lines.append(
                f'{metric}_bucket{{le="{le}"}} {_format_value(cumulative)}')
        lines.append(f"{metric}_sum {_format_value(hist.total)}")
        lines.append(f"{metric}_count {_format_value(hist.count)}")

    return "\n".join(lines) + "\n"


def _parse_labels(raw: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pattern = re.compile(
        r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"\s*(?:,|$)')
    pos = 0
    while pos < len(raw):
        match = pattern.match(raw, pos)
        if match is None:
            raise ValueError(f"malformed label set: {raw!r}")
        value = match.group("val")
        value = (
            value.replace("\\\\", "\x00")
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\x00", "\\")
        )
        labels[match.group("key")] = value
        pos = match.end()
    return labels


def _parse_document(text: str):
    """Parse exposition text into ordered family records.

    Each record is ``{"type": ..., "help": ..., "samples": [(name,
    labels, value_text), ...]}``; samples attach to the histogram base
    family when a ``_bucket``/``_sum``/``_count`` suffix matches a
    declared histogram, otherwise to their own name.  Raises
    ``ValueError`` on grammar defects; semantic checks (cumulativity
    etc.) live in :func:`validate_exposition`.
    """
    families: "Dict[str, Dict[str, object]]" = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 and parts[1] == "TYPE":
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            family = parts[2]
            record = families.setdefault(
                family, {"type": None, "help": None, "samples": []})
            if parts[1] == "TYPE":
                kind = parts[3]
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {kind!r}")
                record["type"] = kind
            else:
                record["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name in families and families[name]["type"] is not None:
            family = name
        elif base in families and families[base]["type"] == "histogram":
            family = base
        else:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration")
        labels = _parse_labels(match.group("labels") or "")
        families[family]["samples"].append(
            (name, labels, match.group("value")))
    return families


def validate_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text strictly; raise ``ValueError`` on any defect.

    Checks the line grammar, that every sample is preceded by a TYPE
    declaration for its family, and that histogram ``_bucket`` series
    — *per distinct non-``le`` label set* — are cumulative in
    increasing ``le`` order and end with ``+Inf`` equal to the matching
    ``_count``.  Returns ``{family: {"type": ..., "samples":
    {name_or_le: value}, "labels": {(key, value), ...}}}`` for
    follow-on assertions; ``samples`` is the legacy flat view (last
    sample wins when label sets collide), ``labels`` collects every
    non-``le`` label pair seen on the family.
    """
    parsed = _parse_document(text)
    families: Dict[str, Dict[str, object]] = {}
    for family, record in parsed.items():
        if record["type"] is None:
            continue  # HELP-only stray; no samples can have attached
        samples: Dict[str, float] = {}
        label_pairs: set = set()
        series: Dict[Tuple, Dict[str, float]] = {}
        scalars: Dict[Tuple, float] = {}
        for name, labels, raw_value in record["samples"]:
            value = (float(raw_value)
                     if raw_value not in ("+Inf", "-Inf", "NaN")
                     else {"+Inf": math.inf, "-Inf": -math.inf,
                           "NaN": math.nan}[raw_value])
            sig = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"))
            label_pairs.update(sig)
            if (name.endswith("_bucket") and record["type"] == "histogram"
                    and "le" in labels):
                group = series.setdefault(sig, {})
                le = labels["le"]
                if le in group:
                    raise ValueError(f"duplicate bucket le={le!r}"
                                     f" in {family}")
                group[le] = value
            else:
                key = (name, sig)
                if key in scalars:
                    raise ValueError(
                        f"duplicate sample {name!r} labels {dict(sig)!r}")
                scalars[key] = value
            samples[labels.get("le", name)] = value
        info: Dict[str, object] = {
            "type": record["type"], "samples": samples,
            "labels": label_pairs,
        }
        families[family] = info
        if record["type"] != "histogram":
            continue
        if record["samples"] and not series:
            raise ValueError(f"{family}: histogram missing +Inf bucket")
        for sig, group in series.items():
            if "+Inf" not in group:
                raise ValueError(
                    f"{family}: histogram missing +Inf bucket "
                    f"(labels {dict(sig)!r})")
            ordered = sorted(
                group, key=lambda k: float(k.replace("+Inf", "inf")))
            last = -math.inf
            for le in ordered:
                if group[le] < last:
                    raise ValueError(
                        f"{family}: bucket le={le} not cumulative "
                        f"({group[le]} < {last})")
                last = group[le]
            count = scalars.get((f"{family}_count", sig))
            if count is not None and group["+Inf"] != count:
                raise ValueError(
                    f"{family}: +Inf bucket {group['+Inf']} != _count "
                    f"{count}")
    return families

