#!/usr/bin/env python3
"""Generate a synthetic RSSI measurement file for the `localize` command.

4 corner anchors on a 4m x 5m rectangle, one interior target, per-link
path-loss exponent drawn uniformly from [2, 6], repeated noisy reads per
directed link.  The true target position is printed so the localization
error can be checked by hand.  The records come from a generator that the
writer streams to the file, so a log of any length is written in bounded
memory.
"""

import argparse

import numpy as np

from ordinal_unloc.core import SensorField
from ordinal_unloc.ingest import MeasurementRecord, write_measurement_file


def synthetic_log(seed, repeats, noise_db):
    """The field, the true target and a generator of the records, which
    draws each read's noise when the record is taken."""
    rng = np.random.default_rng(seed)
    anchors = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 5.0], [0.0, 5.0]])
    target = rng.uniform([0.5, 0.5], [3.5, 4.5])
    pts = np.vstack([anchors, target])
    field = SensorField(2, anchors, declared_targets=1)
    ids = field.anchor_ids + field.target_ids
    n = len(ids)
    exponents = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    draws = rng.uniform(2.0, 6.0, iu.size)
    exponents[iu, ju] = draws
    exponents[ju, iu] = draws

    def records():
        line = 0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = float(np.linalg.norm(pts[i] - pts[j]))
                base = -10.0 * exponents[i, j] * np.log10(d)
                for _ in range(repeats):
                    yield MeasurementRecord(
                        ids[i], ids[j], float(line), base + noise_db * rng.normal(), line
                    )
                    line += 1

    return field, target, records()


def build(path, seed, repeats, noise_db):
    field, target, records = synthetic_log(seed, repeats, noise_db)
    write_measurement_file(path, field, records)
    return target


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("out", help="measurement file to write")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=6, help="reads per directed link")
    ap.add_argument("--noise-db", type=float, default=0.8)
    args = ap.parse_args()
    target = build(args.out, args.seed, args.repeats, args.noise_db)
    print(f"wrote {args.out}; true target at ({target[0]:.3f}, {target[1]:.3f})")
