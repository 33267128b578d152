#!/usr/bin/env python3
"""Benchmark the numba-compiled decode kernels against the numpy fallback,
and a document's lattices decoded as one batch against one at a time.

Run from the repository root:

    python3 benchmarks/kernel_bench.py
    SYLPIPE_NO_NUMBA=1 python3 benchmarks/kernel_bench.py   # numpy-only

The same comparison is reachable through `sylpipe bench ... --kernels`.
"""

import argparse

from sylpipe import _kernels
from sylpipe.bench import compare_kernels


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--positions", type=int, default=40,
                        help="lattice length (default 40)")
    parser.add_argument("--labels", type=int, default=24,
                        help="label count (default 24)")
    parser.add_argument("--lattices", type=int, default=500,
                        help="lattices per timed pass (default 500)")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed passes, best-of (default 5)")
    args = parser.parse_args()

    print(f"active backend: {_kernels.BACKEND} "
          f"(numba available: {_kernels.HAVE_NUMBA})")
    rows = compare_kernels(lattice_shape=(args.positions, args.labels),
                           n_lattices=args.lattices, repetitions=args.reps)
    by_kernel = {}
    print(f"{'kernel':<12} {'backend':<8} {'total':>10} {'per lattice':>12}")
    for kernel, backend, seconds in rows:
        per_call = seconds / args.lattices
        print(f"{kernel:<12} {backend:<8} {seconds * 1e3:8.2f}ms "
              f"{per_call * 1e6:10.2f}us")
        by_kernel.setdefault(kernel, {})[backend] = seconds
    for kernel, times in by_kernel.items():
        if "numba" in times and "numpy" in times:
            print(f"{kernel}: numba is {times['numpy'] / times['numba']:.1f}x "
                  f"the numpy path")
        if "batched" in times:
            for backend in ("numpy", "numba"):
                if backend in times:
                    print(f"{kernel}: one batch is {times[backend] / times['batched']:.1f}x "
                          f"one lattice at a time on {backend}")


if __name__ == "__main__":
    main()
