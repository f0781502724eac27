"""Compare two digest maps of ``tools/output_digests.py``, artifact by artifact.

Usage, with the maps of a parent checkout and of a change:

    python3 tools/compare_digests.py PARENT.json CHANGE.json

Prints, for each artifact name in either map, how many of the keys that
ran in both maps moved, that is, have different digests of it, and
which keys those are.  Then it prints the keys that failed in each map
and the keys that only one map has.  Last, for each workload and row,
the mean change of each ``quality`` metric (PCC, KC, AUC) over the keys
that ran in both maps with quality recorded, the smallest and largest
change on one key, each with the key that made it, so the worst key
shows next to the mean, and how many of those keys got worse and
better.  Exits 0 when every key ran in
both maps with the same digests, and 1 otherwise; quality does not
enter that rule, nor does a reader that closes the pipe early, as
``| head`` does.
"""

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

QUALITY = "quality"


def _listing(label: str, keys: list[str]) -> str:
    return f"{label}: {', '.join(keys)}" if keys else label


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines for two digest maps, and whether they are equal with no
    failed run."""
    ran = sorted(k for k in parent.keys() & change.keys()
                 if "failed" not in (parent[k], change[k]))
    names = sorted({name for k in ran for name in parent[k].keys() | change[k].keys()} - {QUALITY})
    lines = []
    equal = True
    for name in names:
        keys = [k for k in ran if name in parent[k] or name in change[k]]
        moved = [k for k in keys if parent[k].get(name) != change[k].get(name)]
        lines.append(_listing(f"{name}: {len(moved)} of {len(keys)} keys moved", moved))
        equal = equal and not moved
    for side, digests, other in (("parent", parent, change), ("change", change, parent)):
        failed = sorted(k for k, d in digests.items() if d == "failed")
        only = sorted(digests.keys() - other.keys())
        lines.append(_listing(f"failed in {side}: {len(failed)}", failed))
        if only:
            lines.append(_listing(f"only in {side}: {len(only)}", only))
        equal = equal and not failed and not only
    return lines + quality_deltas(parent, change, ran), equal


def quality_deltas(parent: dict, change: dict, ran: list[str]) -> list[str]:
    """One line per workload and row: each quality metric's mean change
    from ``parent`` to ``change`` over the ``ran`` keys, its smallest and
    largest change on one key with that key (the first in key order on a
    tie), and the number of keys where it fell and where it rose."""
    groups = defaultdict(list)
    for k in ran:
        if QUALITY in parent[k] and QUALITY in change[k]:
            workload, _, _, row = k.split("/")
            groups[workload, row].append((k, parent[k][QUALITY], change[k][QUALITY]))
    lines = []
    for (workload, row), runs in sorted(groups.items()):
        parts = []
        for metric in sorted(runs[0][1]):
            deltas = [(c[metric] - p[metric], k) for k, p, c in runs]
            lo, lo_key = min(deltas, key=lambda dk: dk[0])
            hi, hi_key = max(deltas, key=lambda dk: dk[0])
            worse = sum(d < 0 for d, _ in deltas)
            better = sum(d > 0 for d, _ in deltas)
            parts.append(f"{metric} {sum(d for d, _ in deltas) / len(deltas):+.6f} "
                         f"(min {lo:+.6f} at {lo_key}, max {hi:+.6f} at {hi_key}; "
                         f"{worse} worse, {better} better)")
        lines.append(f"quality {workload} row {row}, {len(runs)} keys: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="digest map of the parent checkout")
    parser.add_argument("change", type=Path, help="digest map of the change")
    args = parser.parse_args(argv)
    lines, equal = compare(json.loads(args.parent.read_text()),
                           json.loads(args.change.read_text()))
    try:
        print("\n".join(lines))
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader has gone: point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
