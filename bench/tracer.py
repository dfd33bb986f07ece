"""Spans and counters attached to cssdistill functions from outside.

The program carries no timers: the tracer replaces a function or method by
a wrapper for the length of a traced region and puts the original back
afterwards.  Targets are looked up by name, so a target that the program no
longer has is recorded as missing instead of failing the run, and a layer
whose every target is missing is listed in ``unmeasured``.

A span's self time is its duration minus the time covered by the spans it
encloses.  Spans of the same name may nest (the ``m == 1`` group path is
entered through the generic one); ``entries`` counts only the outermost
call of each nest, which is the number of units of work the layer did.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_PACKAGE = "cssdistill"


def _bindings(fn):
    """Every (module, attribute) of the package that binds ``fn``; a name
    imported with ``from .x import f`` is a separate binding."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


class Tracer:
    """In-memory span and counter store with install/uninstall of wrappers."""

    def __init__(self):
        self.targets: list[tuple] = []
        self.missing: list[str] = []
        self.unmeasured: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.entries: Counter = Counter()
        self.counts: Counter = Counter()

    # ---- declaring targets -------------------------------------------------

    def span(self, owner, attr: str, name, layers=()) -> None:
        """Time calls of ``owner.attr``; ``name`` is a layer name, or a
        function of the call's positional arguments that returns one of
        ``layers``."""
        self.targets.append(("span", owner, attr, name, layers if callable(name) else (name,)))

    def count(self, owner, attr: str, name: str, amount=None) -> None:
        """Count calls of ``owner.attr`` under ``name`` (``amount(args)``
        per call if given) without opening a span."""
        self.targets.append(("count", owner, attr, (name, amount), (name,)))

    # ---- installing --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        missing = []
        declared, measured = set(), set()
        for kind, owner, attr, spec, layers in self.targets:
            declared.update(layers)
            original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            measured.update(layers)
            wrapper = self._span_wrapper(original, spec) if kind == "span" else self._count_wrapper(original, *spec)
            sites = [(owner, attr)] if isinstance(owner, type) else _bindings(original)
            for site, name in sites:
                self._patches.append((site, name, original))
                setattr(site, name, wrapper)
        self.missing = missing
        self.unmeasured = declared - measured

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches = []

    def _span_wrapper(self, fn, name):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            layer = name(args) if callable(name) else name
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                tracer.self_s[layer] += dt - frame[1]
                tracer.calls[layer] += 1
                if outer:
                    tracer.entries[layer] += 1
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _count_wrapper(self, fn, name, amount):
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                n = 1 if amount is None else amount(args)
            except (TypeError, IndexError):  # the target's signature changed
                n = 1
            tracer.counts[name] += n
            return fn(*args, **kwargs)

        return wrapper
