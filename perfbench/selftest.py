"""Self-test of the benchmark's correctness gate and of BENCHMARK.json.

A call whose stdout differs from the recorded bytes and a call that prints
the right bytes but exits 1 must both count as failed; a good call, traced
or not, must pass.  The metric and workload names in BENCHMARK.json must be
the ones run.py and layers.py report.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import time

import layers
import run

GOOD = ("dims", "--rank", "2", "--genus", "2", "--group", "sl", "--format", "plain")
TAMPERED = ("macdonald", "--genus", "2", "--n", "1", "--format", "json")
EXIT_1 = ("git", "classify", "--weights", "1,-1", "--format", "latex")


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def exercise(runner):
    """One good call, one traced good call, one tampered, one exit 1."""
    check(runner.call(GOOD).ok, "a correct call failed")
    traced = runner.call(GOOD, trace=True)
    check(traced.ok and any(s[0] == "geometry.moduli_dim" for s in traced.spans),
          "a traced call failed or has no geometry span")
    check(not runner.call(TAMPERED).ok, "a call with tampered stdout passed")
    cli_code = run.CLI_CODE
    run.CLI_CODE = "import sys; from higgsmoduli.cli import run; run(sys.argv[1:]); sys.exit(1)"
    try:
        check(not runner.call(EXIT_1).ok, "a call that exited 1 passed")
    finally:
        run.CLI_CODE = cli_code
    return runner.failed, runner.attempted


def main():
    expected = json.loads(run.EXPECTED.read_text())
    for argv in (GOOD, TAMPERED, EXIT_1):
        check(run.key(argv) in expected, f"no recorded output for {run.key(argv)}")
    expected[run.key(TAMPERED)] = run.digest(b"tampered\n")
    with run.Runner(expected, time.perf_counter() + run.DEADLINE_S) as runner:
        failed, attempted = exercise(runner)
    check((failed, attempted) == (2, 4), f"error_rate counted {failed}/{attempted}, expected 2/4")

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload names")
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
          "end_to_end metrics")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.METRICS,
          "per_layer metrics")
    print("selftest ok: tampered stdout and exit 1 both counted (2/4 calls failed)")


if __name__ == "__main__":
    main()
