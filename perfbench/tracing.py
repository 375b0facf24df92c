"""Spans recorded by the benchmark around its calls into the library.

A span has a name (``<module>.<function>`` of the public call, or a
benchmark-level name such as ``pass``), start and end on the
``perf_counter`` clock, the id of its parent span and the id of the
operation it belongs to. Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; `enabled=False` makes every call a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, op: str = "", **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            0.0,
            parent.id if parent else None,
            op or (parent.op if parent else ""),
            dict(attrs),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def children(self, root: Span) -> list[Span]:
        """Every span below `root`; spans are recorded in start order, so the
        scan stops at the first span that starts after `root` ended."""
        below = {root.id}
        out = []
        for i in range(root.id + 1, len(self.spans)):
            s = self.spans[i]
            if s.start > root.end:
                break
            if s.parent in below:
                below.add(s.id)
                out.append(s)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
