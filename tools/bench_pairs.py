"""Run the benchmark on two checkouts in alternating pairs and record both.

    python3 tools/bench_pairs.py --base DIR --workload NAME [--seed N ...]
                                 [--pairs P] [--trace 0|1]

DIR is a checkout of the commit to compare against (for example one
unpacked with ``git archive``); the other side is the checkout holding this
script. For each seed, pair k runs ``perfbench/run.py`` in the base first
when k is even and in this checkout first when k is odd, with the same
arguments on both sides; the run length is run.py's own. The two JSON
lines that run.py prints last (its info and its result) are stored as
they are, under the side that printed them. With ``--trace 0`` a summary
gives, per seed and side, the median and quartiles of every end-to-end
metric named in BENCHMARK.json, and how many pairs this checkout won on
each. The record is written to
``BENCH_<workload>.json`` at the root of this checkout, or to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800.0


def bench_args(workload: str, seed, trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *bench_args(workload, seed, trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], seeds: list[int], metrics: list[dict]) -> dict:
    summary = {}
    for seed in seeds:
        pairs = {}
        for run in runs:
            if run["seed"] == seed:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        entry = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            sides = {side: [p[side][name]["value"] for p in pairs.values()] for side in ("base", "change")}
            entry[name] = {
                "better": metric["better"],
                "base": spread(sides["base"]),
                "change": spread(sides["change"]),
                "change_wins": sum(sign * (c - b) > 0 for b, c in zip(sides["base"], sides["change"])),
                "pairs": len(pairs),
            }
        summary[str(seed)] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", default=[1234])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"base": args.base.resolve(), "change": ROOT}

    runs = []
    for seed in args.seed:
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                run = run_bench(sides[side], args.workload, seed, args.trace)
                runs.append({"seed": seed, "pair": pair, "side": side, "first": order[0], **run})
                metrics = run["result"]["metrics"]
                print(f"seed {seed} pair {pair} {side}: "
                      + ", ".join(f"{k} {v['value']:.6g}" for k, v in metrics.items()), file=sys.stderr)

    record = {
        "workload": args.workload,
        "command": " ".join(bench_args(args.workload, "SEED", args.trace)),
        "sides": {"base": "the commit compared against", "change": "this checkout"},
        "runs": runs,
    }
    if args.trace == 0:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        record["summary"] = summarize(runs, args.seed, spec["end_to_end"])
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
