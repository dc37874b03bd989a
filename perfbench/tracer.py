"""Outside tracer: times calls into a package's public functions by wrapping them.

Every public function defined in a module of the package is replaced by a
wrapper that records a span (name, start, end, parent).  A statement such as
``from .model import assemble_hamiltonian`` copies the binding into the
importing module, so replacing the function only where it is defined would
miss most calls.  ``install`` therefore rebinds the function in every module
namespace of the package that holds it, and raises ``TraceError`` if any
original is still bound afterwards.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


class TraceError(RuntimeError):
    """The tracer could not replace every binding of a traced function."""


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    outermost: bool = True
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# describe(args, kwargs, result_or_None, error_or_None) -> dict of span info
Describer = Callable[[tuple, dict, object, Optional[BaseException]], dict]


class Tracer:
    """Span recorder for one package; spans are kept in memory in start order."""

    def __init__(self, package: str, methods: tuple[tuple[str, str, str], ...] = (),
                 describers: Optional[dict[str, Describer]] = None):
        # methods: (module short name, class name, method name) to wrap as well
        self.package = package
        self.methods = methods
        self.describers = describers or {}
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def _wrap(self, name: str, fn):
        describe = self.describers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, self._stack[-1] if self._stack else -1,
                        outermost=self._depth.get(name, 0) == 0)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            self._depth[name] = self._depth.get(name, 0) + 1
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._depth[name] -= 1
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.duration
                if error is not None:
                    span.info["error"] = type(error).__name__
                if describe is not None:
                    span.info.update(describe(args, kwargs, result, error))

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        if self._restore:
            raise TraceError("tracer is already installed")
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        originals = {key: w.__wrapped_original__ for key, w in wrappers.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for short, cls_name, meth in self.methods:
            cls = getattr(sys.modules[f"{self.package}.{short}"], cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = self._wrap(f"{short}.{cls_name}.{meth}", fn)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, type(raw)(wrapped) if fn is not raw else wrapped)
        stale = [f"{mod.__name__}.{attr}" for mod in modules
                 for attr, obj in vars(mod).items() if id(obj) in originals
                 and originals[id(obj)] is obj]
        if stale or not wrappers:
            self.uninstall()
            raise TraceError("originals still bound after install: " + ", ".join(stale)
                             if stale else f"no functions found in {self.package}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
