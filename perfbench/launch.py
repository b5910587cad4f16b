"""Run one qcnied CLI command in this process, optionally traced.

    python3 perfbench/launch.py --import-only
    python3 perfbench/launch.py -- <qcnied arguments>
    python3 perfbench/launch.py --trace FILE --chain ID -- <qcnied arguments>

The package is imported from the checkout's own ``src`` directory. The
untraced form imports ``qcnied.cli`` and calls ``main``; ``--import-only``
stops after the import, which is the set-up cost every command pays.

The traced form first times the import, then replaces every public
function and public method of every ``qcnied`` module with a wrapper that
records a span (id, parent id, name, start, end) before it calls
``qcnied.cli.main``. Spans stay in memory and are written to FILE as one
JSON object when the command returns, tagged with the chain id that all
commands of one pipeline share. No file under ``src`` is touched; the
wrappers live only in this process.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CO_GENERATOR = 0x20


def _text_bytes(values) -> int:
    return sum(len(v.encode("utf-8")) for v in values if isinstance(v, str))


def _table_entries(result) -> dict:
    return {"table_entries": len(result.table)}


def _elements(result) -> dict:
    return {"elements": len(result.elements)}


# counters read off a call's arguments or result, keyed by span name
_ON_RESULT = {
    "niederreiter.error_capacity": _table_entries,
    "autgroup.stab_full": _elements,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, chain: str):
        self.chain = chain
        self.spans: list[list] = []
        self.stack: list[int] = [0]
        self.wrapped: dict[int, types.FunctionType] = {}

    def add(self, name: str, start: int, end: int, extra=None) -> None:
        self.spans.append([len(self.spans) + 1, 0, name, start, end, extra])

    def wrap(self, fn: types.FunctionType, name: str):
        if id(fn) in self.wrapped:
            return self.wrapped[id(fn)]
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        on_result = _ON_RESULT.get(name)
        reads = name.startswith("io.read_")
        writes = name.startswith("io.write_")

        def traced(*args, **kwargs):
            sid = len(spans) + 1
            span = [sid, stack[-1], name, clock(), 0, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = clock()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[4] = clock()
            if on_result is not None:
                span[5] = on_result(result)
            elif reads:
                span[5] = {"bytes": _text_bytes(list(args) + list(kwargs.values()))}
            elif writes:
                span[5] = {"bytes": _text_bytes([result])}
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        self.wrapped[id(fn)] = traced
        return traced

    def install(self) -> None:
        """Wrap public functions and methods in every loaded qcnied module.

        Functions are wrapped once and every module attribute that refers
        to the same function object gets the same wrapper, so names
        imported with ``from .x import f`` are traced too. Generator
        functions and properties are left alone: their bodies run on the
        caller's time.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("qcnied.") and m is not None]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if self._traceable(value):
                    layer = value.__module__.rsplit(".", 1)[-1]
                    setattr(mod, attr, self.wrap(value, f"{layer}.{value.__name__}"))
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._install_class(value, mod.__name__.rsplit(".", 1)[-1])

    def _install_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                if self._traceable(raw.__func__):
                    setattr(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
            elif self._traceable(raw):
                setattr(cls, attr, self.wrap(raw, name))

    @staticmethod
    def _traceable(value) -> bool:
        return (
            isinstance(value, types.FunctionType)
            and value.__module__.startswith("qcnied.")
            and not value.__code__.co_flags & CO_GENERATOR
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"chain": self.chain, "spans": self.spans}, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    trace_path = chain = None
    import_only = False
    while argv and argv[0] != "--":
        opt = argv.pop(0)
        if opt == "--import-only":
            import_only = True
        elif opt == "--trace" and argv:
            trace_path = argv.pop(0)
        elif opt == "--chain" and argv:
            chain = argv.pop(0)
        else:
            print(f"launch.py: bad option {opt!r}", file=sys.stderr)
            return 2
    cli_args = argv[1:]
    sys.path.insert(0, str(SRC))
    if trace_path is None:
        from qcnied import cli

        return 0 if import_only else cli.main(cli_args)
    tracer = Tracer(chain or "")
    start = time.perf_counter_ns()
    from qcnied import cli

    tracer.add("import", start, time.perf_counter_ns())
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
