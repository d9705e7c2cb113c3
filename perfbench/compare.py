"""Compare two benchmark result files and flag algorithmic changes.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each file is a result file written by run.py, for one workload or for
`--workload all`.  For every workload in both files this flags any
difference in `iterations_total`, in the status counts or in the verdict
counts: those belong to the algorithm and may change only in a change
that says it changes the algorithm.  Items whose iteration count moved
are listed.  Timings are printed side by side for reading, never
flagged: comparing them needs repeated runs (see BENCHMARK.json bounds).
Workloads run with different seeds or parameters cannot be compared and
are flagged as such.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "workloads" in data:
        return data["workloads"]
    return {data["header"]["workload"]: data}


def compare(before, after):
    """Return (flags, lines) for two {workload: record} maps."""
    flags, lines = [], []
    for name in sorted(set(before) & set(after)):
        a, b = before[name], after[name]
        ha, hb = a["header"], b["header"]
        if (ha["seed"], ha["params"]) != (hb["seed"], hb["params"]):
            flags.append(f"{name}: not comparable (seed or workload parameters differ)")
            continue
        ia, ib = a["e2e"]["iterations_total"], b["e2e"]["iterations_total"]
        if ia != ib:
            flags.append(f"{name}: iterations_total {ia} -> {ib}")
        for kind in ("status", "verdict"):
            if a["counts"][kind] != b["counts"][kind]:
                flags.append(f"{name}: {kind} counts {a['counts'][kind]} -> {b['counts'][kind]}")
        moved = [i for i, (x, y) in enumerate(zip(a["per_item"], b["per_item"])) if x != y]
        if moved:
            flags.append(f"{name}: {len(moved)} pool items changed outcome, first {moved[:10]}")
        for key in sorted(a["e2e"]):
            va, vb = a["e2e"][key], b["e2e"].get(key)
            ratio = f"{vb / va:8.3f}x" if va and vb is not None else "       -"
            lines.append(f"{name:<12} {key:<18} {va:>14.6g} {vb:>14.6g} {ratio}")
    for name in sorted(set(before) ^ set(after)):
        lines.append(f"{name}: only in one file")
    return flags, lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    flags, lines = compare(load(argv[0]), load(argv[1]))
    for line in lines:
        print(line)
    for flag in flags:
        print(f"FLAG {flag}")
    print("iteration counts, statuses and verdicts match" if not flags
          else f"{len(flags)} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
