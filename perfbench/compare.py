"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_RUNS CHANGE_RUNS

Each argument is a directory holding run directories written by
``perfbench/run.py`` (``.perfbench_runs`` by default).  Only end-to-end
runs (``--trace 0``) that checked correct are compared.  For every
workload and end-to-end metric it prints each side's median and quartiles,
the pairs the change won (runs paired by seed, else by order) and a
verdict under the bounds in ``BENCHMARK.json``:

``better``      the change won at least 9 in 10 pairs and the medians differ
                by more than the base's own quartile spread;
``worse``       the change's median is worse than the base's by more than
                the bound;
``unresolved``  the runs spread wider than the bound, so no smaller change
                can be told apart, and the change did not beat every base run;
``unchanged``   otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

Run = Dict[str, Any]


def load_runs(directory: Path) -> Dict[str, List[Run]]:
    """workload -> correct end-to-end runs under ``directory``."""
    runs: Dict[str, List[Run]] = {}
    for result_path in sorted(directory.rglob("result.json")):
        config_path = result_path.with_name("config.json")
        if not config_path.exists():
            continue
        config = json.loads(config_path.read_text())
        result = json.loads(result_path.read_text())
        arguments = config["args"]
        if arguments.get("trace") or not result.get("correct"):
            continue
        runs.setdefault(arguments["workload"], []).append(
            {
                "seed": arguments["seed"],
                "path": str(result_path.parent),
                "metrics": {name: item["value"] for name, item in result["metrics"].items()},
            }
        )
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def pair(base: List[Run], change: List[Run]) -> List[Tuple[Run, Run]]:
    by_seed = {run["seed"]: run for run in change}
    pairs = [(run, by_seed[run["seed"]]) for run in base if run["seed"] in by_seed]
    if pairs:
        return pairs
    return list(zip(base, change))


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    wins: int,
    pairs: int,
    better: str,
    bound: float,
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base_low, base_median, base_high = quartiles(base)
    change_low, change_median, change_high = quartiles(change)
    gain = sign * (change_median - base_median)
    spread = max(
        (base_high - base_low) / abs(base_median) if base_median else 0.0,
        (change_high - change_low) / abs(change_median) if change_median else 0.0,
    )
    if pairs and wins >= 0.9 * pairs and gain > base_high - base_low:
        return "better"
    if base_median and -gain / abs(base_median) > bound:
        return "worse"
    if spread > bound:
        if all(sign * (c - b) > 0 for c in change for b in base):
            return "better"
        return "unresolved"
    return "unchanged"


def compare(
    base_runs: Mapping[str, List[Run]],
    change_runs: Mapping[str, List[Run]],
    benchmark: Mapping[str, Any],
) -> List[Dict[str, Any]]:
    rows = []
    for workload in sorted(set(base_runs) & set(change_runs)):
        base, change = base_runs[workload], change_runs[workload]
        pairs = pair(base, change)
        cells = {}
        for metric in benchmark["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            base_values = [run["metrics"][name] for run in base if name in run["metrics"]]
            change_values = [run["metrics"][name] for run in change if name in run["metrics"]]
            if not base_values or not change_values:
                continue
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(
                1
                for a, b in pairs
                if sign * (b["metrics"][name] - a["metrics"][name]) > 0
            )
            cells[name] = {
                "unit": metric["unit"],
                "base": quartiles(base_values),
                "change": quartiles(change_values),
                "runs": (len(base_values), len(change_values)),
                "won": (wins, len(pairs)),
                "bound": bound,
                "verdict": verdict(base_values, change_values, wins, len(pairs), better, bound),
            }
        rows.append({"workload": workload, "metrics": cells})
    return rows


def render(rows: Sequence[Mapping[str, Any]]) -> str:
    lines = []
    names: List[str] = []
    for row in rows:
        for name in row["metrics"]:
            if name not in names:
                names.append(name)
    header = ["workload", *names]
    table = [header]
    for row in rows:
        cells = [row["workload"]]
        for name in names:
            cell = row["metrics"].get(name)
            if cell is None:
                cells.append("-")
                continue
            ratio = cell["change"][1] / cell["base"][1] if cell["base"][1] else float("nan")
            cells.append(f"{cell['verdict']} x{ratio:.3f} {cell['won'][0]}/{cell['won'][1]}")
        table.append(cells)
    widths = [max(len(str(line[column])) for line in table) for column in range(len(header))]
    for line in table:
        lines.append("  ".join(str(cell).ljust(width) for cell, width in zip(line, widths)).rstrip())
    lines.append("")
    lines.append("median [q1, q3] per side; won = pairs where the change was better")
    for row in rows:
        for name, cell in row["metrics"].items():
            base, change = cell["base"], cell["change"]
            lines.append(
                f"{row['workload']:16s} {name:22s} base {base[1]:.4g} [{base[0]:.4g}, {base[2]:.4g}]"
                f"  change {change[1]:.4g} [{change[0]:.4g}, {change[2]:.4g}] {cell['unit']}"
                f"  n={cell['runs'][0]}/{cell['runs'][1]} won {cell['won'][0]}/{cell['won'][1]}"
                f"  bound {cell['bound']}  {cell['verdict']}"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("base", type=Path, help="directory of the base (parent) runs")
    parser.add_argument("change", type=Path, help="directory of the changed program's runs")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    if not base_runs or not change_runs:
        print("compare: no correct end-to-end runs on one side", file=sys.stderr)
        return 2
    rows = compare(base_runs, change_runs, benchmark)
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
