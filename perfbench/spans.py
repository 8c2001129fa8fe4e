"""In-memory spans around public calls, plus Ray Data's structured stats.

A span is (name, start, end, parent). Spans are kept in a list and
written once, as one JSON file, when the benchmark ends. Nothing here
reaches inside ``bern_ray``: spans wrap the benchmark's own calls into
the program, and operator figures come from the structured stats of
each dataset the benchmark materializes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.operators: dict[str, list[dict]] = {}
        self._stack: list[int] = []
        self._seen: set[str] = set()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "start": time.monotonic(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def wall(self, name: str) -> float:
        """Duration of the last finished span called ``name``."""
        for rec in reversed(self.spans):
            if rec["name"] == name and rec["end"] is not None:
                return rec["end"] - rec["start"]
        raise KeyError(name)

    def record_stats(self, label: str, ds) -> None:
        """Per-operator rows, bytes and wall time of a materialized
        dataset, read from ``Dataset._get_stats_summary()``. Operators
        of upstream datasets already recorded are not repeated."""
        self.operators[label] = operator_stats(ds, self._seen)

    def write(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as f:
            json.dump(
                {"spans": self.spans, "operators": self.operators,
                 **(extra or {})},
                f,
                indent=1,
            )


def operator_stats(ds, seen: set[str]) -> list[dict]:
    out: list[dict] = []

    def walk(summary) -> None:
        for parent in summary.parents:
            walk(parent)
        if summary.dataset_uuid in seen:
            return
        seen.add(summary.dataset_uuid)
        for op in summary.operators_stats:
            out.append({
                "operator": op.operator_name,
                "wall_s": (op.wall_time or {}).get("sum"),
                "rows": (op.output_num_rows or {}).get("sum"),
                "bytes": (op.output_size_bytes or {}).get("sum"),
                "span_s": op.time_total_s,
            })

    walk(ds._get_stats_summary())
    return out
