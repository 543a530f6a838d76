"""Spans around the package's public functions, installed from outside the package.

``Tracer.install`` wraps every public function of the six modules, the
public methods of their classes and the constructors of their dataclasses.
Because ``fidelity``, ``conventions``, ``cli`` and the package namespace bind
functions by name at import, each wrapper replaces the original in every
package namespace that holds it, including dict values such as
``fidelity.SAMPLERS``. ``uninstall`` puts the originals back.

A span is (name index, start ns, end ns, parent call id, call id). Spans are
kept in memory; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import subprocess
import sys
import time
from collections import defaultdict

MODULES = ("linalg", "bell", "protocol", "fidelity", "conventions", "cli")


def public_callables(module):
    """(qualified name, owner, attribute, original, kind) for each public callable of a module."""
    short = module.__name__.rsplit(".", 1)[1]
    found = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{short}.{name}", module, name, obj, "function"))
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found.append((f"{short}.{name}", obj, "__init__", obj.__dict__["__init__"], "function"))
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    found.append((f"{short}.{name}.{attr}", obj, attr, member, "classmethod"))
                elif inspect.isfunction(member):
                    found.append((f"{short}.{name}.{attr}", obj, attr, member, "function"))
    return found


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.raised: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._next_id = 0
        self._undo = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        module = name.split(".", 1)[0]
        spans, stack, clock, raised = self.spans, self._stack, time.perf_counter_ns, self.raised
        tracer = self

        def traced(*args, **kwargs):
            call_id = tracer._next_id
            tracer._next_id = call_id + 1
            parent = stack[-1]
            stack.append(call_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, in the module whose function raised it first.
                if not getattr(exc, "_bench_counted", False):
                    raised[module] += 1
                    try:
                        exc._bench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((index, start, end, parent, call_id))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [self.package] + [sys.modules[f"{self.package.__name__}.{m}"] for m in MODULES]
        replacements = {}
        for m in MODULES:
            for name, owner, attr, original, kind in public_callables(sys.modules[f"{self.package.__name__}.{m}"]):
                if kind == "classmethod":
                    new = classmethod(self._wrap(name, original.__func__))
                    replacements[id(original.__func__)] = new
                else:
                    new = self._wrap(name, original)
                    replacements[id(original)] = new
                self._undo.append((owner, attr, original))
                setattr(owner, attr, new)
        # Names bound by ``from .x import f`` in other namespaces, and dict values.
        for namespace in modules:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and id(value) in replacements:
                    self._undo.append((namespace, attr, value))
                    setattr(namespace, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in replacements:
                            self._undo.append((value, key, item))
                            value[key] = replacements[id(item)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self):
        """Per function name: call counts and self seconds."""
        child = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            child[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for index, start, end, _, call_id in self.spans:
            name = self.names[index]
            calls[name] += 1
            self_ns[name] += end - start - child[call_id]
        return dict(calls), {name: ns * 1e-9 for name, ns in self_ns.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\tcall_id\n")
            for index, start, end, parent, call_id in self.spans:
                handle.write(f"{self.names[index]}\t{start}\t{end}\t{parent}\t{call_id}\n")


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_self_times(src: str) -> dict[str, float]:
    """Self import time in seconds of each package module, from ``python -X importtime``."""
    code = f"import sys; sys.path.insert(0, {src!r}); import ensemble_teleport, ensemble_teleport.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    times = {}
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match and match.group(3).strip().startswith("ensemble_teleport."):
            module = match.group(3).strip().split(".", 1)[1]
            times[module] = int(match.group(1)) * 1e-6
    return times
