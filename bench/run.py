"""slocceq benchmark: seeded check workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs a closed loop in one process: the next check starts only
after the previous one returns. Inputs come from the seed and are built
outside the timed region; the program receives only the generated states.

``--trace 0`` times whole rounds of the workload until ``--seconds`` have
passed and reports the end-to-end metrics. ``--trace 1`` makes a fixed
number of rounds, running each check untraced and then with every layer
wrapped (see ``spans.py``), and reports the per-layer means per check.
Both modes check every verdict against the pair's construction (see
``workloads.py``).

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every verdict is allowed, 1 when
the oracle trips, and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Matrices here are at most 81x81, where BLAS threads only add jitter.
BLAS_THREADS = 1
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
TAIL_WINDOWS = 5

END_TO_END_UNITS = {
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "decided_per_s": "1/s",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("self_ms"):
        return "ms/check"
    if name == "solver.ms_per_restart":
        return "ms/restart"
    if name.startswith("trace.") or name.startswith("verdict."):
        return "ratio"
    return "count/check"


def provenance(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"BLAS {blas.get('name')} {blas.get('version')} ({BLAS_THREADS} thread), "
        f"nproc {len(os.sched_getaffinity(0))}"
    )


def run_check(pair):
    """Time one check; a raised exception is reported and returns None."""
    t0 = perf_counter()
    try:
        verdict = pair.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        verdict = None
    return verdict, perf_counter() - t0


def judge(pair, verdict, oracle_miss):
    if verdict is None:
        return f"{pair.kind}: check raised"
    return oracle_miss(pair, verdict)


def percentile(times, p):
    ordered = sorted(times)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def tail(times):
    """Highest listed percentile with at least ten samples beyond it in the run.

    The value is the median of that percentile over ``TAIL_WINDOWS``
    consecutive windows of checks, so a few seconds of contention on a
    shared host do not set the tail of the whole run. Returns
    ``(percentile, value, samples beyond in the run, whole-run value)``;
    with too few samples for any listed percentile it falls back to the
    maximum.
    """
    n = len(times)
    for p in TAIL_PERCENTILES:
        beyond = n - math.ceil(p / 100 * n)
        if beyond >= TAIL_MIN_BEYOND:
            windows = [times[n * i // TAIL_WINDOWS:n * (i + 1) // TAIL_WINDOWS] for i in range(TAIL_WINDOWS)]
            value = statistics.median(percentile(w, p) for w in windows)
            return p, value, beyond, percentile(times, p)
    return 100, max(times), 0, max(times)


def setup_seconds(workload, seed):
    """Median over fresh processes of import plus one warm-up check.

    Process ``i`` warms up on the first pair of round ``i``, so the median
    is taken over several inputs rather than over one input's cost.
    """
    samples = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload, str(seed), str(i)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def print_kinds(rows):
    """Per pair kind: count, median check time and verdict counts."""
    by_kind = defaultdict(list)
    for kind, status, dt in rows:
        by_kind[kind].append((status, dt))
    for kind, items in by_kind.items():
        counts = Counter(status for status, _ in items)
        p50 = statistics.median(dt for _, dt in items) * 1e3
        verdicts = " ".join(f"{s}={c}" for s, c in sorted(counts.items()))
        print(f"  {kind:22s} n={len(items):5d} p50={p50:9.3f} ms  {verdicts}")


def timed_run(workload, seed, seconds, oracle_miss):
    setup = setup_seconds(workload.name, seed)
    run_check(workload.make_round(seed, 0)[0])  # warm-up, untimed

    rows, misses = [], []
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        for pair in workload.make_round(seed, r):
            verdict, dt = run_check(pair)
            miss = judge(pair, verdict, oracle_miss)
            if miss:
                misses.append(miss)
            rows.append((pair.kind, verdict.status.name if verdict else "RAISED", dt))
        r += 1

    times = [dt for _, _, dt in rows]
    n = len(rows)
    decided = sum(status in ("EQUIVALENT", "INEQUIVALENT") for _, status, _ in rows)
    undecided = sum(status == "UNDECIDED" for _, status, _ in rows)
    p, tail_s, beyond, whole_s = tail(times)
    metrics = {
        "check_p50_ms": statistics.median(times) * 1e3,
        "check_tail_ms": tail_s * 1e3,
        "decided_per_s": decided / sum(times),
        "decided_frac": decided / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    print(f"rounds {r}, checks {n}, check wall {sum(times):.3f} s")
    print_kinds(rows)
    for name, value in metrics.items():
        note = ""
        if name == "check_tail_ms":
            note = (
                f"  (p{p}, median of {TAIL_WINDOWS} windows; {beyond} samples beyond"
                f" in the run, n={n}, whole-run p{p} {whole_s * 1e3:.3f} ms)"
            )
        elif name == "decided_frac":
            note = f"  ({decided} of {n} checks attempted)"
        print(f"{name:16s} {value:14.6f} {END_TO_END_UNITS[name]}{note}")
    print(f"{'undecided_frac':16s} {undecided / n:14.6f} ratio  ({undecided} of {n} checks attempted)")
    print(f"{'failed_frac':16s} {len(misses) / n:14.6f} ratio  ({len(misses)} of {n} checks attempted)")
    return n, misses, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def traced_run(workload, seed, seconds, oracle_miss):
    from spans import LAYERS, Tracer

    rounds = max(1, round(seconds / 2 / workload.round_s))
    pairs = [p for r in range(rounds) for p in workload.make_round(seed, r)]
    n = len(pairs)
    run_check(pairs[0])  # warm-up, untimed

    # Each check runs untraced and then traced, back to back, so the
    # overhead ratio is not skewed by the machine's speed drifting between
    # two long passes.
    tracer = Tracer()
    plain, traced = [], []
    for i, pair in enumerate(pairs):
        plain.append(run_check(pair))
        tracer.check_id = i
        with tracer.installed():
            traced.append(run_check(pair))

    misses = []
    for pair, (v_plain, _), (v_traced, _) in zip(pairs, plain, traced):
        miss = judge(pair, v_traced, oracle_miss)
        if miss is None and (v_plain is None or v_plain.status is not v_traced.status):
            miss = f"{pair.kind}: traced verdict differs from the untraced one"
        if miss:
            misses.append(miss)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json")

    wall_plain = sum(dt for _, dt in plain)
    wall_traced = sum(dt for _, dt in traced)
    totals = tracer.layer_totals()
    statuses = Counter(v.status.name for v, _ in traced if v is not None)

    def per_check(layer, key="calls", outcome=None):
        t = totals[layer]
        return (t["outcomes"][outcome] if outcome else t[key]) / n

    solver = totals["solver"]
    metrics = {f"{layer}.self_ms": per_check(layer, "self_s") * 1e3 for layer in LAYERS}
    metrics.update({f"{layer}.calls": per_check(layer) for layer in LAYERS if layer != "equivalence"})
    metrics.update({
        "invariants.proofs": per_check("invariants", outcome="proof"),
        "solver.spectral_found": per_check("solver", outcome="spectral"),
        "solver.engine_found": per_check("solver", outcome="engine_found"),
        "solver.exhausted": per_check("solver", outcome="exhausted"),
        "solver.restarts": per_check("solver", "restarts"),
        "solver.ms_per_restart": (
            solver["engine_self_s"] * 1e3 / solver["restarts"] if solver["restarts"] else 0.0
        ),
        "linalg.svd_calls": tracer.svd_calls / n,
        "recovery.failed": per_check("recovery", outcome="failed"),
        "verify.failed": per_check("verify", outcome="failed"),
    })
    for status in ("EQUIVALENT", "INEQUIVALENT", "UNDECIDED"):
        metrics[f"verdict.{status.lower()}"] = statuses[status] / n
    covered = tracer.top_level_seconds() - totals["equivalence"]["self_s"]
    metrics["trace.coverage"] = covered / wall_traced
    metrics["trace.overhead"] = wall_traced / wall_plain

    print(f"rounds {rounds}, checks {n}, untraced wall {wall_plain:.3f} s, traced wall {wall_traced:.3f} s")
    print_kinds([(p.kind, v.status.name if v else "RAISED", dt) for p, (v, dt) in zip(pairs, traced)])
    print_layer_shares(pairs, traced, tracer, LAYERS)
    for name in sorted(metrics):
        print(f"{name:24s} {metrics[name]:14.6f} {per_layer_unit(name)}")
    return n, misses, {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}


def print_layer_shares(pairs, traced, tracer, layers):
    """Per pair kind: each layer's share of traced check wall time."""
    wall = defaultdict(float)
    for pair, (_, dt) in zip(pairs, traced):
        wall[pair.kind] += dt
    own = defaultdict(float)
    calls = defaultdict(int)
    for idx, seconds in enumerate(tracer.self_times()):
        key = (pairs[tracer.check[idx]].kind, tracer.layer[idx])
        own[key] += seconds
        calls[key] += 1
    count = Counter(p.kind for p in pairs)
    print("layer share of check wall time (calls per check):")
    for kind in count:
        cells = " ".join(
            f"{layer}={own[kind, layer] / wall[kind]:6.1%}({calls[kind, layer] / count[kind]:.1f})"
            for layer in layers
        )
        print(f"  {kind:22s} {cells}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "slocceq" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import slocceq
    from workloads import WORKLOADS, oracle_miss

    if Path(slocceq.__file__).resolve().parent != SRC / "slocceq":
        print(f"error: slocceq imported from {slocceq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(provenance(np))
    run = traced_run if args.trace else timed_run
    attempted, misses, metrics = run(workload, args.seed, args.seconds, oracle_miss)
    for miss in misses:
        print(f"ORACLE: {miss}")
    result = {
        "correct": not misses,
        "attempted": attempted,
        "failed": len(misses),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not misses else 1


if __name__ == "__main__":
    sys.exit(main())
