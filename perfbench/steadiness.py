"""Run-to-run spread of every end-to-end time and rate metric, raw and
probe-normalized, over a set of untraced runs with different seeds.

Run from the repository root::

    python3 perfbench/steadiness.py --workloads fit-dense shard-sparse \\
        --seeds 0-9 --seconds 25 --out .perfbench/steadiness-a.json

and, to print two such sets as the markdown tables of ``STEADINESS.md``::

    python3 perfbench/steadiness.py --render a.json b.json

Spread is the distance between the first and third quartile over the median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles.  The output
file holds, per workload, every run's result line, its ``perfbench-raw`` and
``perfbench-run`` lines, and the spreads of raw and normalized values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: End-to-end metrics that are times or rates, i.e. that the probe rescales.
TIMED = ("setup_s", "wall_s", "latency_p50_s", "latency_p90_s", "jobs_per_s")


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines if line.startswith(("perfbench-raw ", "perfbench-run "))}
    return {"seed": seed, "result": json.loads(lines[-1]), "raw": tagged["perfbench-raw"],
            "run": tagged["perfbench-run"]}


def summarize(runs: list[dict]) -> dict:
    metrics = runs[0]["result"]["metrics"]
    normalized = {name: [r["result"]["metrics"][name]["value"] for r in runs]
                  for name in metrics}
    summary = {}
    for name, values in normalized.items():
        row = {"median": statistics.median(values), "spread": spread(values)}
        if name in TIMED:
            raw = [r["raw"][name] for r in runs]
            row.update(raw_median=statistics.median(raw), raw_spread=spread(raw))
        summary[name] = row
    return summary


def render(first: dict, second: dict) -> str:
    """Markdown: per workload, each metric's medians and spreads in two sets."""
    out = []
    for workload in first:
        a, b = first[workload]["summary"], second[workload]["summary"]
        n_a, n_b = len(first[workload]["runs"]), len(second[workload]["runs"])
        out += [f"### {workload} ({n_a} + {n_b} runs)", "",
                "| metric | median A | median B | B vs A | spread A | spread B "
                "| raw spread A | raw spread B |",
                "| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: |"]
        for name, row in a.items():
            other = b[name]
            shift = other["median"] / row["median"] - 1.0 if row["median"] else 0.0
            raw = (f"{row['raw_spread']:.3f} | {other['raw_spread']:.3f}"
                   if "raw_spread" in row else "– | –")
            out.append(f"| `{name}` | {row['median']:.4g} | {other['median']:.4g} | "
                       f"{shift:+.3f} | {row['spread']:.3f} | {other['spread']:.3f} | {raw} |")
        out.append("")
    return "\n".join(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--render", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.render:
        first, second = (json.loads(path.read_text()) for path in args.render)
        print(render(first, second))
        return 0
    if not args.workloads or not args.out:
        parser.error("--workloads and --out are required unless --render is given")
    record = {}
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds) for seed in seeds_from(args.seeds)]
        record[workload] = {"runs": runs, "summary": summarize(runs)}
        print(workload)
        for name, row in record[workload]["summary"].items():
            raw = (f"  raw median {row['raw_median']:.4g} spread {row['raw_spread']:.3f}"
                   if "raw_spread" in row else "")
            print(f"  {name:15s} median {row['median']:.4g} spread {row['spread']:.3f}{raw}",
                  flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
