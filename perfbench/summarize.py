"""Aggregate run reports (written by ``run.py --report``) per workload.

Usage: python3 perfbench/summarize.py REPORT.json... [--out SUMMARY.json]

For every workload, trace mode and metric it prints the number of runs, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(reports) -> dict:
    runs: dict[str, dict] = {}
    for r in reports:
        key = f"{r['workload']}/trace{r['trace']}"
        entry = runs.setdefault(key, {"seeds": [], "values": {}, "units": {},
                                      "failed": 0, "attempted": 0,
                                      "machine": r["machine"]})
        entry["seeds"].append(r["seed"])
        entry["failed"] += r["failed"]
        entry["attempted"] += r["attempted"]
        metrics = dict(r["metrics"])
        if not r["trace"]:
            for name in ("register_calls_per_s", "generate_names_per_s",
                         "eval_names_per_s"):
                if r["detail"].get(name):
                    metrics[name] = {"value": r["detail"][name],
                                     "unit": "1/s"}
        for name, v in metrics.items():
            entry["values"].setdefault(name, []).append(v["value"])
            entry["units"][name] = v["unit"]
    out = {}
    for key, entry in sorted(runs.items()):
        stats = {}
        for name, values in entry["values"].items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            stats[name] = {"unit": entry["units"][name], "n": len(values),
                           "median": med, "q1": q1, "q3": q3,
                           "min": min(values), "max": max(values),
                           "spread": (q3 - q1) / med if med else 0.0}
        machine = dict(entry["machine"])
        machine.pop("pythonhashseed", None)
        machine.pop("seed", None)
        out[key] = {"seeds": entry["seeds"], "attempted": entry["attempted"],
                    "failed": entry["failed"], "machine": machine,
                    "metrics": stats}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    reports = []
    for path in args.reports:
        data = json.loads(Path(path).read_text("utf-8"))
        reports.extend(data if isinstance(data, list) else [data])
    summary = summarize(reports)
    for key, entry in summary.items():
        print(f"== {key}  seeds={entry['seeds']}  "
              f"failed={entry['failed']}/{entry['attempted']}")
        for name, s in entry["metrics"].items():
            print(f"  {name:44s} {s['median']:12.6g} {s['unit']:6s} "
                  f"n={s['n']:2d} spread={s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
