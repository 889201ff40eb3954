"""Spans for the traced run, and the protocol meter that splits the
simulator's time into protocol time and simulator self time.

The simulator reaches protocol.on_deliver and protocol.stabilizing_step
as attributes of the protocol module, so replacing those attributes
with timed wrappers sees every call it makes. The wrappers are in place
only during traced passes.
"""

from __future__ import annotations

import json
import os
import time

clock = time.perf_counter

METERED = ("on_deliver", "stabilizing_step")


class ProtocolMeter:
    """Call counts and seconds spent in the metered protocol functions."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.calls = {name: 0 for name in METERED}
        self.seconds = {name: 0.0 for name in METERED}
        self._originals = {}

    def _wrap(self, name, fn):
        calls, seconds = self.calls, self.seconds

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1
        return timed

    def __enter__(self):
        for name in METERED:
            fn = getattr(self.protocol, name)
            self._originals[name] = fn
            setattr(self.protocol, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self._originals.items():
            setattr(self.protocol, name, fn)
        self._originals.clear()

    def total_seconds(self):
        return sum(self.seconds.values())

    def snapshot(self):
        return dict(self.calls), dict(self.seconds)


class SpanLog:
    """Spans kept in memory and written out when the benchmark ends."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, instance=None, **attrs):
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "instance": instance, "start": start, "end": end}
        span.update(attrs)
        self.spans.append(span)
        return span["id"]

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
