"""Host-time spans around the public entry points of each layer.

The traced run wraps methods and module functions of ``src/repro`` at run
time (nothing under ``src/`` is edited) and records, per call, a span:
name, start, end, self time, parent span and the request id when the call
carries a :class:`~repro.serving.scheduler.Request`.  Self time is the
span's duration minus the time its wrapped children cover.

Per-token entry points (KV allocator, step-cost pricing) are *folded*:
instead of one span per call they add to a ``(parent, name)`` row of
count, total and self time, so the traced run's memory stays bounded.

Spans stay in memory and are written out once, at exit, by :meth:`save`.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.serving.scheduler import Request

_clock = time.perf_counter


class Tracer:
    """Span recorder plus the run-time patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: (name id, start, end, self, parent span index, request id)
        self.spans: list[tuple] = []
        #: (parent name, name) -> [count, total s, self s]
        self.folded: dict[tuple, list] = {}
        # Frames: [name, start, child seconds, span index of the nearest
        # unfolded ancestor-or-self].
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, owner, attr: str, name: str, *, fold: bool = False,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        recording wrapper.

        ``before(args)`` runs ahead of the call; ``after(args, result,
        seconds, parent)`` after it, with the call's duration and the
        enclosing span's name.  A call whose direct parent has the same
        name (a subclass override calling ``super()``) is not recorded
        twice.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        stack = self._stack
        folded = self.folded
        spans = self.spans
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [name, _clock(), 0.0,
                     parent[3] if parent is not None else -1]
            if not fold:
                frame[3] = len(spans)
                spans.append(None)
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                self_s = dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if fold:
                    key = (parent[0] if parent is not None else None, name)
                    row = folded.get(key)
                    if row is None:
                        folded[key] = [1, dur, self_s]
                    else:
                        row[0] += 1
                        row[1] += dur
                        row[2] += self_s
                else:
                    rid = -1
                    for a in args:
                        if isinstance(a, Request):
                            rid = a.request_id
                            break
                    spans[frame[3]] = (
                        name_id, frame[1], end, self_s,
                        parent[3] if parent is not None else -1, rid,
                    )
            if after is not None:
                after(args, result, dur, parent[0] if parent else None)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_hierarchy(self, base: type, attr: str, name: str, **kw) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that overrides
        it."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in cls.__dict__:
                self.wrap(cls, attr, name, **kw)
            todo.extend(cls.__subclasses__())

    def unwrap(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def mark(self) -> tuple[int, dict]:
        """A position to aggregate from (see :meth:`aggregate`)."""
        return len(self.spans), {k: list(v) for k, v in self.folded.items()}

    def aggregate(self, since: tuple[int, dict]) -> dict:
        """Per span name: ``[count, total s, self s]`` since ``since``,
        folded rows included (summed over parents)."""
        start, folded0 = since
        out: dict[str, list] = {}
        for name_id, t0, t1, self_s, _p, _r in self.spans[start:]:
            row = out.setdefault(self.names[name_id], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += self_s
        for key, (n, total, self_s) in self.folded.items():
            n0, total0, self0 = folded0.get(key, (0, 0.0, 0.0))
            row = out.setdefault(key[1], [0, 0.0, 0.0])
            row[0] += n - n0
            row[1] += total - total0
            row[2] += self_s - self0
        return out

    def folded_since(self, since: tuple[int, dict]) -> dict:
        """The folded ``(parent, name)`` rows accrued since ``since``."""
        _, folded0 = since
        out = {}
        for key, (n, total, self_s) in self.folded.items():
            n0, total0, self0 = folded0.get(key, (0, 0.0, 0.0))
            if n - n0:
                out[key] = [n - n0, total - total0, self_s - self0]
        return out

    def save(self, path: Path) -> None:
        """Write the spans and folded rows as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        keys = sorted(self.folded, key=lambda k: (str(k[0]), k[1]))
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(cols[0], dtype=np.int32),
            start_s=np.array(cols[1], dtype=np.float64),
            end_s=np.array(cols[2], dtype=np.float64),
            self_s=np.array(cols[3], dtype=np.float64),
            parent=np.array(cols[4], dtype=np.int64),
            request_id=np.array(cols[5], dtype=np.int64),
            folded_parent=np.array([str(k[0]) for k in keys], dtype=str),
            folded_name=np.array([k[1] for k in keys], dtype=str),
            folded=np.array([self.folded[k] for k in keys],
                            dtype=np.float64).reshape(-1, 3),
        )
