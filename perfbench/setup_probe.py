"""Time one set-up of a workload in a fresh process and print the seconds.

Set-up is importing iterreg, parsing the workload config and the first
``build_problem`` + ``build_data``. The runner starts this probe several
times per run and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import bootstrap


def main(argv):
    name, seed = argv[0], int(argv[1])
    bootstrap.pin_blas()
    bootstrap.use_checkout_source()
    start = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.setup(workload.config(workload.template(), seed, 0))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
