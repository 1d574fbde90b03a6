"""In-memory span recorder for the benchmark.

A span is one call into a layer: its name, start and end (``perf_counter``
seconds), the span that caused it and the request it belongs to. Spans
are recorded from the benchmark's own files only. :meth:`Tracer.wrap`
replaces a module attribute that the program looks up at call time (for
example ``repro.experiments.harness.execute_plan``) by a recording
wrapper; a name the module no longer has is skipped and listed in
:attr:`Tracer.missing`, so a later change that deletes a function still
traces cleanly and its span shows as gone.

With a SparkContext, every span tags the Spark jobs it starts with its
own job group, and :meth:`Tracer.count_jobs` later reads the jobs and
completed tasks of each group from ``statusTracker()``.
"""
from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

_GROUP_KEY = "spark.jobGroup.id"


@dataclass
class Span:
    id: int
    name: str
    request: str
    parent: int | None
    start: float
    end: float = 0.0
    #: Facts read from the wrapped call's result (rows, phases, ...).
    notes: dict = field(default_factory=dict)
    group: str | None = None
    spark_jobs: int = 0
    spark_tasks: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; optionally tags Spark jobs per span."""

    def __init__(self, sc=None) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.request = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self._kids: dict[int | None, list[Span]] = {}
        self._indexed = 0

    @contextmanager
    def span(self, name: str, jobs: bool = True, **notes) -> Iterator[Span]:
        """Record a span; with ``jobs``, tag the Spark jobs it starts."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            id=len(self.spans),
            name=name,
            request=self.request,
            parent=parent.id if parent else None,
            start=time.perf_counter(),
            notes=dict(notes),
        )
        self.spans.append(sp)
        tag = self.sc is not None and jobs
        if tag:
            sp.group = f"{self.request}#{sp.id}"
            self.sc.setLocalProperty(_GROUP_KEY, sp.group)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if tag:
                outer = next((s.group for s in reversed(self._stack) if s.group), None)
                self.sc.setLocalProperty(_GROUP_KEY, outer)

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        note: Callable[[object], dict] | None = None,
        jobs: bool = True,
    ) -> None:
        """Record a span around every call of ``module.attr``.

        ``note(result)`` returns facts to keep on the span; ``jobs=False``
        skips Spark job tagging for layers that run on the driver only. A
        missing attribute is recorded in :attr:`missing` and left alone.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, jobs=jobs) as sp:
                out = fn(*args, **kwargs)
                if note is not None:
                    sp.notes.update(note(out))
                return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def count_jobs(self) -> None:
        """Fill ``spark_jobs``/``spark_tasks`` of every tagged span.

        Spark's status store is fed by an asynchronous listener bus, so
        the bus is drained first; otherwise the last jobs of a span may
        not be registered yet and the counts would not repeat.
        """
        if self.sc is None:
            return
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        for sp in self.spans:
            if sp.group is None:
                continue
            jobs = tracker.getJobIdsForGroup(sp.group)
            stages = set()
            for j in jobs:
                info = tracker.getJobInfo(j)
                if info is not None:
                    stages.update(info.stageIds)
            sp.spark_jobs = len(jobs)
            sp.spark_tasks = sum(
                s.numCompletedTasks
                for s in map(tracker.getStageInfo, stages)
                if s is not None
            )

    def children(self, sp: Span) -> list[Span]:
        for c in self.spans[self._indexed :]:
            self._kids.setdefault(c.parent, []).append(c)
        self._indexed = len(self.spans)
        return list(self._kids.get(sp.id, ()))

    def descendants(self, sp: Span) -> list[Span]:
        """All spans below ``sp``, in the order they started."""
        out = []
        todo = self.children(sp)
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(self.children(c))
        return sorted(out, key=lambda s: s.id)

    def self_seconds(self, sp: Span) -> float:
        """Span duration minus the time its (sequential) children cover."""
        return sp.seconds - sum(c.seconds for c in self.children(sp))

    def to_json(self) -> list[dict]:
        return [{**asdict(s), "seconds": s.seconds} for s in self.spans]
