"""In-memory spans placed by the benchmark around its calls into ``mftroute``."""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

_UNTRACED = nullcontext()


def no_span(name: str):
    """The span function of an untraced job: records nothing."""
    return _UNTRACED


class Tracer:
    """Collects spans (name, start, end, parent, job) until ``write`` at exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job: int | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "job": self.job,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def per_job(self, root: str) -> dict[int, dict]:
        """Per job, summed seconds by span name and self seconds by layer.

        Only spans below a top-level span called ``root`` count.  A span's
        self time is its duration minus its children's; the layer is the
        span name up to the first dot.
        """
        top: dict[int, int] = {}
        children_s: dict[int, float] = {}
        for s in self.spans:  # a parent is always recorded before its children
            top[s["id"]] = s["id"] if s["parent"] is None else top[s["parent"]]
            if s["parent"] is not None:
                children_s[s["parent"]] = children_s.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[int, dict] = {}
        for s in self.spans:
            if s["parent"] is None or self.spans[top[s["id"]]]["name"] != root:
                continue
            job = out.setdefault(s["job"], {"calls": {}, "self": {}})
            duration = s["end"] - s["start"]
            layer = s["name"].split(".", 1)[0]
            job["calls"][s["name"]] = job["calls"].get(s["name"], 0.0) + duration
            job["self"][layer] = job["self"].get(layer, 0.0) + duration - children_s.get(s["id"], 0.0)
        return out
