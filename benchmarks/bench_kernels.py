#!/usr/bin/env python3
"""Time the classifier kernels.

Median wall time per call over a few chunk sizes, one row per chunk size.
``predict_indices`` is timed on precomputed ``predict_params``, as the
classifier calls it; ``predict_params`` itself runs once per model state.
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
    return X, y_idx, kernels.predict_params(log_priors, means, variances)


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
    header = f"{'rows':>8}{'predict_indices ms':>20}{'class_stats ms':>16}"
    print(header)
    print("-" * len(header))
    for rows in args.sizes:
        X, y_idx, params = make_inputs(rng, rows, args.features, args.classes)
        t_predict = median_ms(kernels.predict_indices, (X, params), args.repeats)
        t_stats = median_ms(kernels.class_stats, (X, y_idx, args.classes), args.repeats)
        print(f"{rows:>8}{t_predict:>20.4f}{t_stats:>16.4f}")


if __name__ == "__main__":
    main()
