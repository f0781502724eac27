"""Time a change against its parent with the benchmark, in alternating pairs.

Usage, with two checkouts of the repository:

    python3 tools/ab_bench.py PARENT CHANGE --workload full-256 --pairs 10 \\
        --seconds 10 --seed 17 --out ab.json

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` once in PARENT and once in CHANGE, each checkout with its own
perfbench, one run after the other; the first side alternates from pair
to pair (parent first in pairs 1, 3, ...), so a drift of the machine's
speed falls on both sides alike.  For each end-to-end metric of
``BENCHMARK.json`` in CHANGE it then prints the two medians over the
pairs, each side's quartiles and min-max, and in how many pairs the
change was better in the direction that file gives, and worse.  A
second line gives the shift of the median, whether it clears the
parent's interquartile range (IQR), and whether the change's median is
worse than the parent's by more than the metric's ``bound``, a share of
the parent's median.  It ends with the verdict of the benchmark's rule
for a gain: "gain shown" when the change was better in at least 9 of
every 10 pairs run, ties counting for neither and pairs without a
correct result counting as lost, and its median is better than the
parent's by more than the parent's IQR; "no gain shown" otherwise.
Quartiles are ``statistics.quantiles(...,
method="inclusive")``.  The raw results of every run go to ``--out`` as
JSON.  Exits 1 when a run is not ``correct`` or
gives no result, and 0 otherwise; the timings decide nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one perfbench run in ``checkout``, parsed, or
    ``{"correct": False, "error": ...}`` when the run gives no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(pairs: list[dict], metrics: list[dict], runs: int) -> list[str]:
    """Two lines per end-to-end metric that both sides report in every pair
    of ``pairs``, the correct ones of the ``runs`` pairs run."""
    if not pairs:
        return []
    lines = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        try:
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        except KeyError:
            continue
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        won = sum(d > 0 for d in diffs)
        quartiles = {side: _quartiles(v) for side, v in values.items()}
        parts = [f"{side} median {statistics.median(v):.6g} (quartiles {quartiles[side][0]:.6g}-"
                 f"{quartiles[side][1]:.6g}, min-max {min(v):.6g}-{max(v):.6g})"
                 for side, v in values.items()]
        lines.append(f"{name} [{m['unit']}, {m['better']} is better]: " + "; ".join(parts)
                     + f"; change better in {won} of {len(pairs)} pairs, "
                     f"worse in {sum(d < 0 for d in diffs)}")
        parent = statistics.median(values["parent"])
        shift = statistics.median(values["change"]) - parent
        iqr = quartiles["parent"][1] - quartiles["parent"][0]
        clears = "clears" if abs(shift) > iqr else "does not clear"
        line = f"  median shift {shift:+.6g} {clears} the parent's IQR {iqr:.6g}"
        if "bound" in m:
            worse = sign * shift < -m["bound"] * abs(parent)
            line += (f"; {'worse' if worse else 'not worse'} than the parent by more than "
                     f"the bound, {m['bound']:g} of its median")
        gain = 10 * won >= 9 * runs and sign * shift > iqr
        lines.append(line + ("; gain shown" if gain else "; no gain shown"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, default=Path("ab_bench.json"),
                        help="raw results of every run (default: ab_bench.json)")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"order": list(order)}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, args.seed, args.seconds)
        pairs.append(pair)
        print(f"pair {i + 1} of {args.pairs}: " + ", ".join(
            f"{side} correct={pair[side].get('correct')}" for side in order), file=sys.stderr)
    args.out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "checkouts": {side: str(path) for side, path in checkouts.items()}, "pairs": pairs,
    }, indent=1))
    incorrect = [f"pair {i + 1} {side}" for i, p in enumerate(pairs) for side in SIDES
                 if p[side].get("correct") is not True]
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, {args.pairs} pairs; "
          f"raw runs in {args.out}")
    correct = [p for p in pairs if all(p[s].get("correct") for s in SIDES)]
    for line in summary(correct, metrics, len(pairs)):
        print(line)
    if incorrect:
        print(f"not correct: {', '.join(incorrect)}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
