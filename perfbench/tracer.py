"""Run one ``fol`` request with timing spans around every layer's public names.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SPANS.json REQUEST_ID -- <fol argv...>

The child imports ``foliations.cli`` (timed as ``cli.import``), then
replaces each function named in the ``__all__`` of ``cli``, ``vfparse``,
``modalg``, ``flow`` and ``holonomy`` by a timing wrapper, in every
``foliations`` module namespace that refers to it, so calls between
modules and within one module both pass through the wrapper.  It then
calls ``foliations.cli.run(argv)`` exactly as the ``fol`` script would,
keeps the spans in memory and writes them to ``SPANS.json`` at exit.

A span is ``[name index, start, end, parent index]``.  Spans opened in a
worker thread with no open span of their own take the request's root
span as parent.  The wrappers also record the sizes of returned bases
(``module_groebner``, ``syzygy_basis``) and the distinct points given to
the pointwise dimension functions.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

LAYERS = ("cli", "vfparse", "modalg", "flow", "holonomy")
POINTWISE = ("tangent_dim", "fiber_dim", "minimal_local_generators")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: dict[int, tuple] = {}
        self.root: int | None = None
        self.basis_len: int | None = None
        self.relations_len: int | None = None
        self.points: set = set()
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        short = name.split(".", 1)[1]
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer.root
            idx = next(tracer._ids)
            if parent is None:
                tracer.root = idx
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name_id, start, end, parent)
            if short == "module_groebner" and tracer.basis_len is None:
                tracer.basis_len = len(result.basis)
            elif short == "syzygy_basis" and tracer.relations_len is None:
                tracer.relations_len = len(result.relations)
            elif short in POINTWISE and len(args) > 1:
                tracer.points.add(tuple(str(c) for c in args[1]))
            return result

        return traced

    def install(self, package_modules) -> None:
        originals = {}
        for layer in LAYERS:
            mod = package_modules[f"foliations.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type) and id(obj) not in originals:
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in package_modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path: str, request: str, import_s: float) -> None:
        body = {
            "request": request,
            "import_s": import_s,
            "names": self.names,
            "spans": [[*self.spans[i]] for i in sorted(self.spans)],
            "basis_len": self.basis_len,
            "relations_len": self.relations_len,
            "points": len(self.points),
        }
        with open(path, "w") as f:
            json.dump(body, f)


def main() -> int:
    out_path, request = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: tracer.py SPANS.json REQUEST_ID -- <fol argv...>")
    argv = sys.argv[4:]
    start = time.perf_counter()
    import foliations.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install({name: mod for name, mod in sys.modules.items() if name.startswith("foliations.")})
    code = cli.run(argv)
    sys.stdout.flush()
    tracer.dump(out_path, request, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
