"""Smoke test of the benchmark itself, at reduced size.

    python3 bench/smoke.py

Checks that every workload, untraced and traced, passes and prints exactly
the metrics ``BENCHMARK.json`` declares, each with its declared unit; that
the oracle trips (exit 1, ``correct`` false) when one expected verdict or
proof kind is deliberately wrong, or a certificate does not fit the
inputs; and that the benchmark refuses to run without the package sources.
Exits 0 when every check holds.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = "1"


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for mode, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            args = ["--workload", workload, "--seed", "0", "--seconds", SECONDS, "--trace", str(mode)]
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), *args],
                capture_output=True, text=True, timeout=180, cwd=ROOT,
            )
            assert done.returncode == 0, (workload, mode, done.stderr[-2000:])
            result = last_json(done.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == declared, (workload, mode, units)
            print(f"ok  {workload} trace {mode}: {len(units)} metrics, {result['attempted']} checks")


def run_in_process(args):
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(args)
    return code, last_json(out.getvalue())


def check_oracle_trips():
    from workloads import WORKLOADS, oracle_miss
    from slocceq.equivalence import EquivalenceStatus as Status

    def corrupt(name, **changes):
        """Workload whose first slot carries a wrong expectation."""
        w = WORKLOADS[name]
        first = w.round[0]
        wrong = lambda key: dataclasses.replace(first(key), **changes)  # noqa: E731
        return dataclasses.replace(w, round=(wrong,) + w.round[1:])

    cases = (
        ("orbit-spectral", {"allowed": frozenset({Status.INEQUIVALENT})}),
        ("screen-reject", {"proof": "tripartite-class"}),
    )
    for name, changes in cases:
        saved = WORKLOADS[name]
        WORKLOADS[name] = corrupt(name, **changes)
        try:
            args = ["--workload", name, "--seed", "0", "--seconds", "0.2", "--trace", "1"]
            code, result = run_in_process(args)
        finally:
            WORKLOADS[name] = saved
        assert code == 1 and not result["correct"] and result["failed"] >= 1, (name, result)
        print(f"ok  oracle trips on {name} with {sorted(changes)} wrong: {result['failed']} misses")

    pairs = WORKLOADS["orbit-spectral"].make_round(0, 0)
    verdict = pairs[0].run()
    assert verdict.status is Status.EQUIVALENT and oracle_miss(pairs[0], verdict) is None
    swapped = dataclasses.replace(pairs[0], s1=pairs[2].s1)
    assert "re-verification" in (oracle_miss(swapped, verdict) or ""), "certificate not re-verified"
    print("ok  oracle re-verifies certificates against the raw inputs")


def check_refuses_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "orbit-spectral", "--seed", "0",
             "--seconds", SECONDS, "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode not in (0, None) and "{" not in done.stdout, done
    print(f"ok  refuses to run without sources (exit {done.returncode})")


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    check_metrics()
    check_oracle_trips()
    check_refuses_without_sources()
    print("smoke test passed")


if __name__ == "__main__":
    main()
