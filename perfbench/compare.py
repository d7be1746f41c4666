#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing mixed machines.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the per-run records perfbench writes to
.bench_build/out/results/ (one JSON file per workload, seed and trace mode).
The script prints, per workload and metric, the median of each set and the
change of the new median against the base. It exits with status 2, without
comparing anything, when the records do not all carry the same machine
fingerprint (nproc, CPU model, compiler, build type, jobs): numbers from
different machines or builds are not comparable.
"""
import glob
import json
import os
import statistics
import sys


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit("compare: no result records in %s" % directory)
    return records


def medians(records):
    values = {}
    for r in records:
        key = (r["workload"], r["trace"])
        for name, metric in r["result"]["metrics"].items():
            values.setdefault(key, {}).setdefault(
                name, []).append(metric["value"])
    return {key: {name: statistics.median(v) for name, v in metrics.items()}
            for key, metrics in values.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in base + new}
    if len(fingerprints) != 1:
        print("compare: refusing to compare results from different machine "
              "fingerprints:", file=sys.stderr)
        for fp in sorted(fingerprints):
            print("  " + fp, file=sys.stderr)
        sys.exit(2)
    base_m, new_m = medians(base), medians(new)
    for key in sorted(set(base_m) & set(new_m)):
        print("%s (trace %d)" % key)
        for name in sorted(set(base_m[key]) & set(new_m[key])):
            b, n = base_m[key][name], new_m[key][name]
            change = "%+.1f%%" % (100.0 * (n - b) / b) if b else "n/a"
            print("  %-36s %14.6g %14.6g %8s" % (name, b, n, change))


if __name__ == "__main__":
    main()
