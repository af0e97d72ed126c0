"""Outside-in layer tracer: spans around the public callables of each layer.

Nothing under ``src/`` knows it is being traced.  :meth:`Tracer.install`
replaces each callable listed in :data:`LAYERS` with a timing wrapper —
on the defining class, or, for a module function, on the defining module
*and* on every ``repro.*`` module attribute bound to the same function
object, so ``from … import`` sites are covered too.  :meth:`Tracer.uninstall`
puts every original back, and :meth:`Tracer.restored` checks that by
identity.

A span is ``[layer, start, end, parent, op, outcome]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``op`` the value of
:data:`CURRENT_OP` when the span opened.  Client-side code runs inside the
op's asyncio task, so its spans carry the op; the server task was created
outside any op, so its spans carry ``None`` and are charged to the
workload as a whole.  Hashing has no layer of its own: it is charged to
the layer that called it.

This module imports ``repro`` only inside :meth:`Tracer.install`.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import pkgutil
import sys
import time

#: The op the running code works for; set by the workloads around each op.
CURRENT_OP: contextvars.ContextVar = contextvars.ContextVar("e2e_current_op", default=None)

_IBLT = "repro.iblt.iblt:IBLT."
_RIBLT = "repro.iblt.riblt:RIBLT."
_MULTISET = "repro.iblt.counting:MultisetIBLT."
_TABLES = "repro.protocol.tables:"
_STORE = "repro.store.store:SketchStore."

#: Layer name -> the public callables it is timed through ("module:qualname").
LAYERS: dict[str, tuple[str, ...]] = {
    "lsh.keys": (
        "repro.lsh.keys:PrefixKeyBuilder.keys_for",
        "repro.lsh.keys:BatchKeyBuilder.key_matrix_for",
    ),
    "lsh.match": ("repro.lsh.keys:BatchKeyBuilder.best_matches",),
    "iblt.build": tuple(
        owner + name
        for owner, names in (
            (_IBLT, ("insert_batch", "delete_batch", "insert_all", "delete_all")),
            (_RIBLT, ("insert_batch", "delete_batch")),
            (_MULTISET, ("insert_batch", "delete_batch", "insert_all", "delete_all")),
        )
        for name in names
    ),
    "iblt.subtract": (_IBLT + "subtract", _RIBLT + "subtract", _MULTISET + "subtract"),
    "iblt.decode": (_IBLT + "decode", _RIBLT + "decode", _MULTISET + "decode"),
    "protocol.cells.write": tuple(
        _TABLES + f"write_{kind}_cells" for kind in ("iblt", "riblt", "multiset")
    ),
    "protocol.cells.read": tuple(
        _TABLES + f"read_{kind}_cells" for kind in ("iblt", "riblt", "multiset")
    ),
    "protocol.points": (
        "repro.protocol.serialize:write_points",
        "repro.protocol.serialize:read_points",
    ),
    "protocol.wire": tuple(
        "repro.protocol.wire:" + name for name in ("encode_frame", "decode_header", "decode_body")
    ),
    "reconcile.keys": tuple(
        "repro.reconcile.exact_iblt:" + name
        for name in ("encode_points", "encode_point", "decode_point")
    ),
    "setsofsets": ("repro.setsofsets.protocol:SetsOfSetsReconciler.run",),
    "core.repair": ("repro.core.repair:repair_point_set",),
    "server.workload": ("repro.server.session:session_workload",),
    "store.serve": (_STORE + "serve_iblt", _STORE + "serve_strata"),
    "store.mutate": (_STORE + "put_set", _STORE + "apply_mutations", _STORE + "apply_events"),
    "stream.log": ("repro.stream.log:record_line",),
}


def _store_hits_before(args: tuple) -> int:
    return args[0].stats.hits


#: Layer -> (state read before the call, outcome computed after it).
#: ``iblt.decode`` records whether the peel emptied the table and
#: ``store.serve`` whether the serve was a warm hit.
_OUTCOMES = {
    "iblt.decode": (None, lambda args, result, state: bool(result.success)),
    "store.serve": (_store_hits_before, lambda args, result, hits: args[0].stats.hits > hits),
}


class Tracer:
    """Installs the layer wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: (owner, attribute, original) for every replaced binding.
        self._patches: list[tuple[object, str, object]] = []

    # -- install / restore -----------------------------------------------------

    def install(self) -> None:
        """Wrap every callable in :data:`LAYERS`.

        All ``repro`` submodules are imported first, so no module first
        loaded while traced can bind a wrapper that :meth:`uninstall`
        would miss.
        """
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, attribute = qualname.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attribute]
                    if isinstance(original, staticmethod):
                        wrapped = staticmethod(self._wrap(layer, original.__func__))
                    else:
                        wrapped = self._wrap(layer, original)
                    self._patch(owner, attribute, original, wrapped)
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(layer, original)
                for site in modules:
                    for attribute, value in list(vars(site).items()):
                        if value is original:
                            self._patch(site, attribute, original, wrapped)

    def _patch(self, owner: object, attribute: str, original: object, wrapped: object) -> None:
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)

    def restored(self) -> bool:
        """True iff every replaced binding is the original object again."""
        return all(
            vars(owner).get(attribute) is original for owner, attribute, original in self._patches
        )

    # -- spans -----------------------------------------------------------------

    def _wrap(self, layer: str, function):
        spans = self.spans
        stack = self._stack
        before, outcome = _OUTCOMES.get(layer, (None, None))

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, CURRENT_OP.get(), None]
            stack.append(len(spans))
            spans.append(span)
            state = before(args) if before is not None else None
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if outcome is not None:
                span[5] = outcome(args, result, state)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [span[2] - span[1] - child[i] for i, span in enumerate(self.spans)]

    def is_call(self, index: int) -> bool:
        """A span counts as one call of its layer unless its parent is the
        same layer (``insert_all`` delegating to ``insert_batch`` is one
        unit of work)."""
        parent = self.spans[index][3]
        return parent < 0 or self.spans[parent][0] != self.spans[index][0]
