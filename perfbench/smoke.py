"""Smoke test for the benchmark; takes about five minutes.

    python3 perfbench/smoke.py

Runs every workload at minimal length (``--seconds 1``, one round) in both
modes and asserts that:

* each run is correct and its last line carries every metric that
  BENCHMARK.json names, with the declared unit;
* the result record carries every end-to-end and per-layer metric that
  README.md lists, the traced pass wrote the same files as the untraced
  pass, and the untraced runs of both invocations (same seed) wrote
  byte-identical files;
* a deliberately corrupted decrypt output invalidates the run;
* without the qcnied sources next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import layers  # noqa: E402  (run as a script: this directory is on sys.path)
import run  # noqa: E402

END_TO_END = {"setup_s", "cmd_s.p50", "pipeline_s.p50", "cmds_per_s", "peak_rss_mb", "fail_ratio"}
PER_LAYER = set(layers.per_layer([], 1))


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc.returncode, proc.stdout.splitlines()


def parse(lines: list[str]) -> tuple[dict, dict]:
    final = json.loads(lines[-1])
    assert lines[-2].startswith("record "), lines[-2]
    return final, json.loads(lines[-2][len("record "):])


def check_final(final: dict, declared: list[dict]) -> None:
    assert set(final) == {"correct", "attempted", "failed", "metrics"}, final
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1, final
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in final["metrics"].items()}
    assert got == want, (got, want)


def corrupt_decrypt(real):
    def execute(argv, stdout_path, stderr_path):
        result = real(argv, stdout_path, stderr_path)
        if "--" in argv and argv[argv.index("--") + 1] == "decrypt":
            support = Path(stdout_path).read_text(encoding="utf-8").strip()
            Path(stdout_path).write_text(support + ",0\n" if support else "0\n", encoding="utf-8")
        return result
    return execute


def check_workloads(spec: dict) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        code, lines = invoke(name, 0)
        assert code == 0, lines[-3:]
        final0, record0 = parse(lines)
        check_final(final0, spec["end_to_end"])
        assert END_TO_END <= set(record0["untraced"]["metrics"]), record0["untraced"]["metrics"]

        code, lines = invoke(name, 1)
        assert code == 0, lines[-3:]
        final1, record1 = parse(lines)
        check_final(final1, spec["per_layer"])
        assert set(record1["layers"]) == PER_LAYER, set(record1["layers"]) ^ PER_LAYER
        assert record1["traced_matches_untraced"]
        assert record1["untraced"]["manifest_sha256"] == record0["untraced"]["manifest_sha256"]
        print(f"{name}: ok, tracing overhead {record1['trace_overhead']:.3f}", flush=True)


def check_corrupted_decrypt() -> None:
    real = run.execute
    run.execute = corrupt_decrypt(real)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "roundtrip", "--seed", "1", "--seconds", "1"])
    finally:
        run.execute = real
        shutil.rmtree(run.RUNS_DIR / f"roundtrip-seed1-trace0-{os.getpid()}", ignore_errors=True)
    final, record = parse(out.getvalue().splitlines())
    assert code != 0 and not final["correct"] and final["failed"] >= 1, final
    assert any("decrypt printed" in f for f in record["failures"]), record["failures"]
    print("corrupted decrypt output: run invalidated", flush=True)


def check_without_sources() -> None:
    (HERE / "_runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_runs") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("_runs", "_results", "__pycache__"))
        code, lines = invoke("audit", 0, cwd=Path(bare))
        assert code != 0 and not lines, lines
    print(f"without sources: exit {code}, no result", flush=True)


def main() -> int:
    check_workloads(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
    check_corrupted_decrypt()
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
