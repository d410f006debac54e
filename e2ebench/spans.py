"""Span recorder that times calls into the program's layers from outside.

The recorder wraps public functions and methods in place, records one
span per call (name, start, end, parent) in flat in-memory arrays, and
puts every original object back when it is closed.  Nothing inside the
program changes: the wrappers sit at the call boundaries only.

Functions that other modules import by name (``from ..analog import
dc_solve``) live on in each importing module as a separate binding, so
patching the defining module alone would miss those calls.
:meth:`SpanRecorder.wrap_function` therefore rebinds the function in
every loaded module that holds it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Per-call hook ``hook(span_index, args, kwargs, result)``; it runs
#: after the call, also when the call raised (``result`` is then None).
Hook = Callable[[int, tuple, dict, object], None]


class SpanRecorder:
    """Flat, append-only span store plus the patches that feed it.

    Spans nest by call stack: a span's parent is the innermost span
    still open when it started.  Single-threaded use only.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: Values captured by hooks, keyed by span index.
        self.attrs: Dict[int, dict] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the enclosed block as one span (used for roots)."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrapper(self, name: str, fn, hook: Optional[Hook]):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index)
                if hook is not None:
                    hook(index, args, kwargs, result)

        return traced

    # -- patching ----------------------------------------------------------
    def wrap_method(
        self, cls: type, attr: str, name: str, hook: Optional[Hook] = None
    ) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by a wrapper."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, hook))

    def wrap_function(
        self, module, attr: str, name: str, hook: Optional[Hook] = None
    ) -> int:
        """Wrap ``module.attr`` at every import site; returns the count.

        Every module in ``sys.modules`` whose attribute of any name is
        the same function object gets the wrapper.
        """
        original = getattr(module, attr)
        wrapped = self._wrapper(name, original, hook)
        sites = 0
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)
                    sites += 1
        return sites

    def close(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def name_of(self, index: int) -> str:
        return self.names[self.name_id[index]]

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children took.

        Spans of one thread nest strictly, so the children of a span
        cover disjoint parts of it and their durations simply add up.
        """
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def roots(self) -> List[int]:
        """Index of each span's outermost ancestor (itself for roots)."""
        root = list(range(len(self.parent)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                root[index] = root[parent]
        return root

    def dump(self, path) -> None:
        """Write the spans, gzip-compressed, as tab-separated ``name
        start end parent`` rows, one per span, in recording order
        (parents are row indices, -1 for roots)."""
        import gzip

        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\n")
            for nid, start, end, parent in zip(
                self.name_id, self.start, self.end, self.parent
            ):
                out.write(
                    f"{self.names[nid]}\t{start!r}\t{end!r}\t{parent}\n"
                )
