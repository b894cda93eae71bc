"""Set-up cost of one fresh process: ``import slocceq`` plus one warm-up check.

Run as ``python3 bench/setup_probe.py <src-dir> <workload> <seed> <round>``;
it prints the seconds spent importing and in the first check of that round
of the workload (building that check's inputs is not counted).
"""

import sys
from time import perf_counter


def main(src, workload, seed, r):
    sys.path.insert(0, src)
    t0 = perf_counter()
    import slocceq  # noqa: F401
    imported = perf_counter() - t0

    from workloads import WORKLOADS

    pair = WORKLOADS[workload].make_round(seed, r)[0]
    t1 = perf_counter()
    pair.run()
    print(imported + perf_counter() - t1)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
