"""Merge the span files of a traced pass into per-layer metrics.

Each traced command leaves one JSON file holding its chain id and its
spans ``[id, parent id, name, start ns, end ns, extra]``. A span's layer
is the first part of its name (the ``qcnied`` module); the ``import``
span covers ``import qcnied.cli``. A span's self time is its duration
minus the durations of its direct children; calls never overlap inside
one process, so children never overlap each other.

``<name>.s`` is inclusive time, counted once per outermost call of that
name; ``<layer>.self_s`` sums self time over every span of the layer.
All values are totals over the pass divided by its number of rounds.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "io", "niederreiter", "conditions", "autgroup", "distinguish", "circulant", "field")

EXPAND = frozenset({
    "circulant.expand_pc",
    "circulant.CirculantBlock.expand",
    "circulant.BlockCirculant.expand",
    "circulant.ParityCheck.expand",
})
SAMPLERS = frozenset({"conditions.sample_compliant", "conditions.sample_variant"})

# metric name -> the span name it counts or times
COUNTS = {
    "cli.build_parser.calls": "cli.build_parser",
    "niederreiter.error_capacity.calls": "niederreiter.error_capacity",
    "niederreiter.gf2_inv.calls": "niederreiter.gf2_inv",
    "conditions.validate_all.calls": "conditions.validate_all",
    "autgroup.stab_block.calls": "autgroup.stab_block",
    "distinguish.min_class_size.calls": "distinguish.min_class_size",
    "circulant.act.calls": "circulant.act",
}
TIMES = {
    "niederreiter.error_capacity.s": "niederreiter.error_capacity",
    "niederreiter.keygen.s": "niederreiter.keygen",
    "niederreiter.encrypt.s": "niederreiter.encrypt",
    "niederreiter.decrypt.s": "niederreiter.decrypt",
    "niederreiter.gf2_inv.s": "niederreiter.gf2_inv",
    "conditions.validate_all.s": "conditions.validate_all",
    "autgroup.stab_full.s": "autgroup.stab_full",
    "autgroup.stab_block.s": "autgroup.stab_block",
    "autgroup.verify_lemma1.s": "autgroup.verify_lemma1",
    "distinguish.dk_bound_from_elements.s": "distinguish.dk_bound_from_elements",
    "distinguish.dk_bound_envelope.s": "distinguish.dk_bound_envelope",
    "distinguish.min_class_size.s": "distinguish.min_class_size",
}


class _Process:
    """The spans of one traced command, indexed for ancestor queries."""

    def __init__(self, data: dict):
        self.spans = data["spans"]
        self.by_id = {s[0]: s for s in self.spans}
        self.child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            self.child_ns[s[1]] += s[4] - s[3]

    def ancestors(self, span):
        parent = self.by_id.get(span[1])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent[1])

    def outermost(self, span, names) -> bool:
        return not any(a[2] in names for a in self.ancestors(span))


def per_layer(trace_files: list[Path], rounds: int) -> dict[str, tuple[float, str]]:
    total: dict[str, float] = defaultdict(float)
    sampled = accepted = 0
    for path in trace_files:
        proc = _Process(json.loads(path.read_text(encoding="utf-8")))
        for span in proc.spans:
            sid, name, start, end = span[0], span[2], span[3], span[4]
            extra = span[5] or {}
            dur = (end - start) / 1e9
            layer = name.split(".", 1)[0]
            if name == "import":
                total["cli.import_s"] += dur
                continue
            total[f"{layer}.self_s"] += dur - proc.child_ns[sid] / 1e9
            total[f"{name}#calls"] += 1
            if proc.outermost(span, {name}):
                total[f"{name}#s"] += dur
            if "error" in extra:
                total[f"{name}#errors"] += 1
            if name.startswith("io.read_"):
                total["io.read_s"] += dur
                total["io.bytes_read"] += extra.get("bytes", 0)
            elif name.startswith("io.write_"):
                total["io.write_s"] += dur
                total["io.bytes_written"] += extra.get("bytes", 0)
            elif name in EXPAND and proc.outermost(span, EXPAND):
                total["circulant.expand.calls"] += 1
                total["circulant.expand.s"] += dur
            elif name in SAMPLERS and "error" not in extra:
                accepted += 1
            elif name == "conditions.validate_all" and not proc.outermost(span, SAMPLERS):
                sampled += 1
            total["niederreiter.capacity_table_entries"] += extra.get("table_entries", 0)
            total["autgroup.elements"] += extra.get("elements", 0)

    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value / rounds if unit != "ratio" else value, unit)

    put("cli.import_s", total["cli.import_s"], "s")
    for name, span in COUNTS.items():
        put(name, total[f"{span}#calls"], "count")
    for name, span in TIMES.items():
        put(name, total[f"{span}#s"], "s")
    put("niederreiter.error_capacity.refused", total["niederreiter.error_capacity#errors"], "count")
    for name in ("io.read_s", "io.write_s", "circulant.expand.s"):
        put(name, total[name], "s")
    for name in ("io.bytes_read", "io.bytes_written"):
        put(name, total[name], "bytes")
    for name in ("niederreiter.capacity_table_entries", "autgroup.elements", "circulant.expand.calls"):
        put(name, total[name], "count")
    put("conditions.sampler_accept_ratio", accepted / sampled if sampled else 0.0, "ratio")
    for layer in LAYERS:
        put(f"{layer}.self_s", total[f"{layer}.self_s"], "s")
    return dict(sorted(out.items()))
