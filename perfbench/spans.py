"""Span arithmetic shared by the harness and its tests.

A span is a dict with ``name``, ``start``, ``end`` (seconds on the
monotonic clock), ``parent`` (index of the enclosing span in the same
list, or None) and ``counts`` (name -> number measured at that
boundary).  Spans come from one process, so they nest: a child span lies
inside its parent's interval.
"""

from __future__ import annotations


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(kids):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span["end"] - span["start"] - covered)
    return out


def top_level(spans: list[dict]) -> list[dict]:
    """Spans no other recorded span encloses."""
    return [span for span in spans if span["parent"] is None]


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per-function totals: ``<name>.calls``, ``<name>.self_s`` and every count."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + own
        for key, value in span["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def stage_seconds(spans: list[dict], stages: dict[str, str]) -> dict[str, float]:
    """Time in top-level spans, summed per stage.

    ``stages`` maps a span name to the stage it belongs to; a stage
    function called from inside another stage (``evaluate`` inside a
    baseline) counts only toward the outer one.
    """
    out: dict[str, float] = {}
    for span in top_level(spans):
        stage = stages.get(span["name"])
        if stage is not None:
            out[stage] = out.get(stage, 0.0) + span["end"] - span["start"]
    return out


def first_stage(spans: list[dict], stages: dict[str, str]) -> dict | None:
    """The process's first stage call, or None if it made none."""
    calls = [span for span in top_level(spans) if span["name"] in stages]
    return min(calls, key=lambda span: span["start"]) if calls else None
