"""Span tracing of contactgeom from outside the package.

The tracer replaces chosen functions, methods and properties with wrappers
that record one span per call: (name, parent span, start, end).  The
package itself is not edited.  A function is often re-exported by name
(``cli`` imports ``build_analysis`` from ``calculus``, ``flow`` imports
``contact_angle_field`` from ``surface``), so every ``contactgeom.*``
module attribute that is the original object is rebound to the wrapper,
not only the defining one.

Spans stay in memory until the run ends; ``self_times`` turns them into
per-span self time (duration minus the part covered by child spans).  A
target that the package no longer defines is recorded in ``absent``
instead of raising, so the benchmark keeps working when a later change
deletes a hot function.
"""

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "contactgeom"


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name, parent, start, end=0.0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end


class Tracer:
    """Installs wrappers, collects spans and counters, and restores on uninstall."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.absent = []
        self._stack = []
        self._restore = []   # (owner, attribute, original value)

    # -- recording -------------------------------------------------------

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name, fn, hook=None, timed=True):
        if not timed:
            counters = self.counters

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[name] = counters.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self, targets, hooks=None, counted=()):
        """Wrap every target named "module.function" or "module.Class.attr".

        hooks maps a target name to hook(tracer, args, result), called
        after the wrapped call returns, for counters taken from results.
        Targets in counted only count their calls under their own name and
        record no span, so their time stays with the caller.
        """
        hooks = hooks or {}
        for target in list(targets) + list(counted):
            wrap = functools.partial(self._wrap, hook=hooks.get(target),
                                     timed=target not in counted)
            modname, _, attr = target.partition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.absent.append(target)
                continue
            cls_name, _, member = attr.rpartition(".")
            if cls_name:
                self._install_member(target, module, cls_name, member, wrap)
            else:
                self._install_function(target, module, attr, wrap)

    def _install_function(self, target, module, attr, wrap):
        original = module.__dict__.get(attr)
        if not inspect.isfunction(original):
            self.absent.append(target)
            return
        wrapper = wrap(target, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _install_member(self, target, module, cls_name, member, wrap):
        owner = module.__dict__.get(cls_name)
        original = vars(owner).get(member) if inspect.isclass(owner) else None
        if isinstance(original, property) and original.fget is not None:
            replacement = property(wrap(target, original.fget),
                                   original.fset, original.fdel, original.__doc__)
        elif inspect.isfunction(original):
            replacement = wrap(target, original)
        else:
            self.absent.append(target)
            return
        self._restore.append((owner, member, original))
        setattr(owner, member, replacement)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def self_times(spans):
    """Per-span self time: duration minus the union of child-span intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so the result never exceeds the duration.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[k].start, span.start),
                              min(spans[k].end, span.end)) for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


def inclusive_times(spans):
    """Per-span duration, zeroed for spans nested inside a span of the same name."""
    out = []
    for span in spans:
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        out.append(span.end - span.start if parent < 0 else 0.0)
    return out


def write_spans(spans, path):
    """Write spans as CSV rows: index, parent, name, start, end (seconds)."""
    with open(path, "w", newline="\n") as fh:
        fh.write("index,parent,name,start,end\n")
        for idx, s in enumerate(spans):
            fh.write(f"{idx},{s.parent},{s.name},{s.start:.9f},{s.end:.9f}\n")
