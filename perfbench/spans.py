"""In-memory span tracing around the public functions of each layer.

The benchmark never edits the program: it wraps functions from outside,
before the code that calls them runs. A :class:`Tracer` records one span
per wrapped call (name, start, end, parent, op id) and keeps every span
in memory until :meth:`Tracer.dump` writes them out at exit.

Parents and op ids live in context variables, so nesting is right both
for asyncio tasks (each task runs in its own context copy) and for the
server's offload thread (a thread starts with an empty context). A
span's *self time* is its duration minus the time of its direct
children; :func:`aggregate` sums both per span name.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time

_current = contextvars.ContextVar("perfbench_span", default=None)
_op = contextvars.ContextVar("perfbench_op", default=None)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child", "items")

    def __init__(self, name, start, parent, op, items):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.child = 0.0
        self.items = items


class Tracer:
    """Records spans for wrapped calls while :attr:`enabled` is set
    (it starts unset)."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _open(self, name, items):
        parent = _current.get()
        span = _Span(name, time.perf_counter(), parent, _op.get(), items)
        return span, _current.set(span)

    def _close(self, span, token):
        span.end = time.perf_counter()
        _current.reset(token)
        if span.parent is not None:
            span.parent.child += span.end - span.start
        with self._lock:
            self.spans.append(span)

    @staticmethod
    def set_op(op_id):
        """Tag every span opened from here on in this context."""
        return _op.set(op_id)

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attribute: str, name, items=None):
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``name`` is a span name or a callable ``(args) -> name``;
        ``items`` optionally maps the call's args to an item count (a
        batch size). Handles plain functions, coroutine functions and
        ``classmethod`` descriptors on classes.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        descriptor = None
        if isinstance(raw, classmethod):
            descriptor = classmethod
            raw = raw.__func__
        tracer = self
        namer = name if callable(name) else (lambda args, _n=name: _n)
        counter = items if items is not None else (lambda args: 1)

        if inspect.iscoroutinefunction(raw):
            @functools.wraps(raw)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await raw(*args, **kwargs)
                span, token = tracer._open(namer(args), counter(args))
                try:
                    return await raw(*args, **kwargs)
                finally:
                    tracer._close(span, token)
        else:
            @functools.wraps(raw)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return raw(*args, **kwargs)
                span, token = tracer._open(namer(args), counter(args))
                try:
                    return raw(*args, **kwargs)
                finally:
                    tracer._close(span, token)

        setattr(owner, attribute,
                descriptor(wrapper) if descriptor is not None else wrapper)

    # -- output ----------------------------------------------------------

    def records(self) -> list:
        """Spans as plain rows: name, start, end, self, parent, op, items."""
        with self._lock:
            spans = list(self.spans)
        index = {id(span): position for position, span in enumerate(spans)}
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "self": (span.end - span.start) - span.child,
                "parent": index.get(id(span.parent)),
                "op": span.op,
                "items": span.items,
            }
            for span in spans
        ]

    def dump(self, path, extra: dict = None) -> None:
        payload = {"spans": self.records()}
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def aggregate(rows, start: float, end: float) -> dict:
    """Per span name: calls, items, total and self seconds.

    Only spans that start inside ``[start, end]`` count, so set-up work
    before the traced segment stays out of per-op figures.
    """
    totals = {}
    for row in rows:
        if not start <= row["start"] <= end:
            continue
        entry = totals.setdefault(
            row["name"], {"calls": 0, "items": 0, "total": 0.0, "self": 0.0}
        )
        entry["calls"] += 1
        entry["items"] += row["items"]
        entry["total"] += row["end"] - row["start"]
        entry["self"] += row["self"]
    return totals


# -- the layer wrappers both processes install ---------------------------

def install_common(tracer: Tracer) -> None:
    """Wrap the layers client and server share: decode, pairing, LSSS,
    decryption sessions."""
    from repro.core import ciphertext as ciphertext_module
    from repro.fastpath import decrypt as fastpath_decrypt
    from repro.pairing import group as group_module
    from repro.pairing import miller as miller_module
    from repro.pairing.prepared import PreparedPairing
    from repro.policy.lsss import LsssMatrix
    from repro.system.records import StoredComponent, StoredRecord

    tracer.wrap(StoredRecord, "from_bytes", "system.decode")
    tracer.wrap(StoredComponent, "from_bytes", "system.decode")

    group_cls = group_module.PairingGroup
    tracer.wrap(group_cls, "pair", "pairing.pair")
    tracer.wrap(group_cls, "pair_prod", "pairing.pair")
    tracer.wrap(group_cls, "prepare_pairing", "pairing.prepare")
    tracer.wrap(PreparedPairing, "miller", "pairing.pair")
    tracer.wrap(group_module, "final_exponentiation", "pairing.pair")
    for module in (miller_module, fastpath_decrypt):
        tracer.wrap(module, "final_exponentiation_many", "pairing.pair")

    tracer.wrap(LsssMatrix, "reconstruction_coefficients", "policy.lsss")
    tracer.wrap(ciphertext_module, "lsss_from_policy", "policy.lsss")

    session_cls = fastpath_decrypt.DecryptionSession
    tracer.wrap(session_cls, "__init__", "fastpath.session_build")
    tracer.wrap(session_cls, "decrypt_many", "fastpath.decrypt")
