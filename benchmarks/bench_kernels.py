#!/usr/bin/env python3
"""Time the numpy and numba kernel pairs side by side.

Median wall time per call over a few chunk sizes, one row per (kernel,
size). Run with DRIFTTUNE_NUMBA=0 to confirm the numpy fallback is the
active pair; the numba columns still time the compiled variants when
numba imports.
"""

import argparse
import statistics
import time

import numpy as np

from drifttune import kernels


def make_inputs(rng, rows, features, classes):
    X = rng.normal(size=(rows, features))
    y_idx = rng.integers(0, classes, size=rows)
    log_priors = np.log(np.full(classes, 1.0 / classes))
    means = rng.normal(size=(classes, features))
    variances = rng.uniform(0.5, 2.0, size=(classes, features))
    return X, y_idx, log_priors, means, variances


def median_ms(fn, args, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 500, 1000, 5000, 20000],
                        help="chunk sizes (rows) to time; at 100 rows, the small-chunk "
                             "workloads' size, per-call overhead outweighs the row work")
    parser.add_argument("--features", type=int, default=3)
    parser.add_argument("--classes", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    have_numba = kernels.predict_indices_numba is not None
    print(f"active pair: {'numba' if kernels.NUMBA_ENABLED else 'numpy'}"
          f" (numba available: {have_numba})")

    pairs = [
        ("predict_indices", kernels.predict_indices_numpy, kernels.predict_indices_numba,
         lambda d: (d[0], d[2], d[3], d[4])),
        ("class_stats", kernels.class_stats_numpy, kernels.class_stats_numba,
         lambda d: (d[0], d[1], args.classes)),
    ]

    header = f"{'kernel':<16}{'rows':>8}{'numpy ms':>12}{'numba ms':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for rows in args.sizes:
        data = make_inputs(rng, rows, args.features, args.classes)
        for name, numpy_fn, numba_fn, pick in pairs:
            call_args = pick(data)
            if numba_fn is not None:
                numba_fn(*call_args)  # compile outside the timed region
            t_numpy = median_ms(numpy_fn, call_args, args.repeats)
            if numba_fn is None:
                print(f"{name:<16}{rows:>8}{t_numpy:>12.4f}{'n/a':>12}{'n/a':>10}")
                continue
            t_numba = median_ms(numba_fn, call_args, args.repeats)
            print(f"{name:<16}{rows:>8}{t_numpy:>12.4f}{t_numba:>12.4f}"
                  f"{t_numpy / t_numba:>10.2f}x")


if __name__ == "__main__":
    main()
