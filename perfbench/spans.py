"""In-memory span recorder for the traced benchmark run.

A span is one call into a wrapped function: a name, a start, an end and
the span that was open when it began (its parent, -1 at the top).  Spans
are kept in flat arrays while the workload runs, so millions of them
stay small, and are written out once the workload has finished.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path


class SpanRecorder:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        self._open.pop()

    def rename(self, index: int, name: str) -> None:
        self.name[index] = self.name_id(name)

    def write(self, path: Path) -> None:
        """One JSON header line, then one "name parent start end" line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names, "spans": len(self)}) + "\n")
            out.writelines(
                f"{n} {p} {s:.9f} {e:.9f}\n"
                for n, p, s, e in zip(self.name, self.parent, self.start, self.end)
            )


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are nested and single-threaded, so children never overlap and
    the sum of their durations is the part of the parent they cover.
    """
    own = [e - s for s, e in zip(start, end)]
    out = own[:]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= own[i]
    return out


def totals(recorder: SpanRecorder) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, self seconds, inclusive seconds)."""
    calls = [0] * len(recorder.names)
    self_s = [0.0] * len(recorder.names)
    incl_s = [0.0] * len(recorder.names)
    selfs = self_times(recorder.parent, recorder.start, recorder.end)
    for nid, s, e, own in zip(recorder.name, recorder.start, recorder.end, selfs):
        calls[nid] += 1
        self_s[nid] += own
        incl_s[nid] += e - s
    return {
        name: (calls[i], self_s[i], incl_s[i]) for i, name in enumerate(recorder.names)
    }
