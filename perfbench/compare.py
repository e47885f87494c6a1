"""Compare parent and change result sets of the kkt benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the captured stdout of untraced runs, one `.txt`
file per run (`run.py ... > DIR/<anything>.txt`). Runs of one workload are paired in
start order; a pair is a parent run and a change run started one after the
other, with the same `--seed` and `--seconds`, and the side that runs first
should alternate between pairs. A pair whose seed or seconds differ is an
error, because the inputs, and so the work, depend on the seed.

For every end-to-end metric of BENCHMARK.json the rule is:

* gain: at least 10 pairs, the change wins at least 9/10 of them (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* regression: the change's median is worse than the parent's by more than
  the metric's bound;
* unresolved: otherwise, when either side's spread (IQR over median) is
  wider than the bound, unless every change run beats every parent run;
* same: otherwise.

One row per workload is printed, then each side's median and quartiles.
Exit code 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Run:
    side: str
    workload: str
    started: float
    metrics: dict
    seed: int
    seconds: float


def load_runs(directory, side: str) -> list[Run]:
    runs = []
    for path in sorted(Path(directory).glob("*.txt")):
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError(f"{path}: no record and result lines")
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        if record["trace"]:
            continue
        if not result["correct"]:
            raise ValueError(f"{path}: run failed its output checks")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(Run(side, record["workload"], record["started_unix"], metrics, record["seed"], record["seconds"]))
    return runs


def pair_runs(runs: list[Run]) -> list[tuple[Run, Run]]:
    """(parent, change) pairs of runs started back to back, in start order.

    Raises ValueError when the two runs of a pair differ in seed or seconds.
    """
    ordered = sorted(runs, key=lambda r: r.started)
    pairs = []
    i = 0
    while i + 1 < len(ordered):
        a, b = ordered[i], ordered[i + 1]
        if a.side != b.side:
            if (a.seed, a.seconds) != (b.seed, b.seconds):
                raise ValueError(
                    f"{a.workload}: runs started at {a.started} and {b.started} form a pair but differ in "
                    f"seed or seconds ({a.seed}, {a.seconds}) vs ({b.seed}, {b.seconds})"
                )
            pairs.append((a, b) if a.side == "parent" else (b, a))
            i += 2
        else:
            i += 1
    return pairs


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Verdict:
    label: str
    change_pct: float  # change median vs parent median, signed so + is better
    wins: int
    pairs: int


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> Verdict:
    """Apply the rule above to (parent value, change value) pairs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    if len(pairs) < 2:
        return Verdict("too-few-pairs", 0.0, 0, len(pairs))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain_pct = 100.0 * sign * (c_med - p_med) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    if -gain_pct > 100.0 * bound:
        label = "regression"
    elif len(pairs) < MIN_PAIRS:
        label = "too-few-pairs"
    elif wins >= WIN_SHARE * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        label = "gain"
    elif spread > bound:
        every_better = min(sign * c for c in change) > max(sign * p for p in parent)
        label = "better" if every_better else "unresolved"
    else:
        label = "same"
    return Verdict(label, gain_pct, wins, len(pairs))


def compare(parent_runs: list[Run], change_runs: list[Run], spec: dict) -> dict:
    """Per workload: a Verdict per metric, the run pairs, and how many pairs ran the parent first."""
    table = {}
    workloads = sorted({r.workload for r in parent_runs + change_runs})
    for w in workloads:
        pairs = pair_runs([r for r in parent_runs + change_runs if r.workload == w])
        row = {}
        for m in spec["end_to_end"]:
            values = [(p.metrics[m["name"]], c.metrics[m["name"]]) for p, c in pairs]
            row[m["name"]] = verdict(values, m["better"], m["bound"])
        parent_first = sum(1 for p, c in pairs if p.started < c.started)
        table[w] = {"verdicts": row, "pairs": pairs, "parent_first": parent_first}
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="directory of parent-commit run outputs")
    ap.add_argument("change", help="directory of change run outputs")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = compare(load_runs(args.parent, "parent"), load_runs(args.change, "change"), spec)
    names = [m["name"] for m in spec["end_to_end"]]
    regressed = False
    print("workload".ljust(18) + "pairs(p-first)  " + "  ".join(n.ljust(28) for n in names))
    for w, entry in table.items():
        cells = []
        for n in names:
            v = entry["verdicts"][n]
            regressed |= v.label == "regression"
            cells.append(f"{v.label} {v.change_pct:+.1f}% {v.wins}/{v.pairs}".ljust(28))
        head = f"{len(entry['pairs'])}({entry['parent_first']})".ljust(16)
        print(w.ljust(18) + head + "  ".join(cells))
    print("\nmedian [q1, q3] per side")
    for w, entry in table.items():
        for n in names:
            if len(entry["pairs"]) < 2:
                continue
            for side, idx in (("parent", 0), ("change", 1)):
                q1, med, q3 = quartiles([pair[idx].metrics[n] for pair in entry["pairs"]])
                print(f"  {w:16s} {n:12s} {side:6s} {med:.6g} [{q1:.6g}, {q3:.6g}]")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
