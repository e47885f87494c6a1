"""In-memory spans around the public kkt functions, and their self times.

A `Tracer` replaces a function at the attribute where callers look it up
(`kkt.model.mha`, not only `kkt.attention.mha`, because `from ... import`
binds one name per module) with a wrapper that records a span: name, start,
end, the index of the enclosing span and the current example id. Spans stay
in memory until the run ends. `uninstall` puts every original back.

A span's self time is its duration minus the durations of its direct
children; children never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

NO_PARENT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    example: str | None


class Tracer:
    """Records nested spans from wrapped functions, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.example: str | None = None
        self._open: list[int] = []
        self._patches: list = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else NO_PARENT
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.example))
        self._open.append(index)
        return index

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, example_of=None, after=None):
        """Replace `owner.attr` with a spanning wrapper.

        `example_of(args)` names the example the call works on; that id is
        stamped on this span and on every later span until the next one.
        `after(args, result)` runs once the span has closed.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if example_of is not None:
                tracer.example = example_of(args)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.example]) + "\n")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def inside(spans: list[Span], ancestor: str) -> list[bool]:
    """For each span, whether some enclosing span is named `ancestor`."""
    flags = []
    for s in spans:
        p = s.parent
        flags.append(p != NO_PARENT and (flags[p] or spans[p].name == ancestor))
    return flags


def summarize(spans: list[Span], keep=None) -> dict[str, SpanStats]:
    """Calls, total time and self time per span name.

    `keep` is an optional per-span boolean mask; a dropped span still
    counts as its parent's child, so the parent's self time is unchanged.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent != NO_PARENT:
            child_s[s.parent] += s.end - s.start
    stats: dict[str, SpanStats] = {}
    for i, s in enumerate(spans):
        if keep is not None and not keep[i]:
            continue
        st = stats.setdefault(s.name, SpanStats())
        duration = s.end - s.start
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s[i]
    return stats


def hit_ratio(spans: list[Span], name: str, miss_child: str, keep=None) -> float:
    """Share of `name` spans with no direct `miss_child` span; 0 without calls.

    A cache lookup that has to compute shows the computation as a child
    span, so a call without one was served from the cache.
    """
    missed = set()
    for s in spans:
        if s.name == miss_child and s.parent != NO_PARENT and spans[s.parent].name == name:
            missed.add(s.parent)
    calls = [i for i, s in enumerate(spans) if s.name == name and (keep is None or keep[i])]
    if not calls:
        return 0.0
    return sum(1 for i in calls if i not in missed) / len(calls)


def example_times(spans: list[Span], forward: str, backward: str) -> list[float]:
    """Seconds per example: each `forward` span plus the `backward` span right after it.

    A backward with no forward since the previous backward (an NLI-head
    step, say) belongs to no example and is skipped.
    """
    out = []
    pending = False
    for s in spans:
        if s.name == forward:
            out.append(s.end - s.start)
            pending = True
        elif s.name == backward and pending:
            out[-1] += s.end - s.start
            pending = False
    return out
