"""Run every workload of the mqtransfer benchmark and print one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]
        [--perturb-reference] [--save FILE]

Prints wall_s, setup_s, peak_rss_mb, fail_ratio and the wall_s tail, with
units, one row per workload. --trace adds a traced run per workload and a
table of the per-layer metrics. --save writes every run record as JSON (the
checked-in baseline/seed.json was written this way).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import run
import tracing
import workloads


def _row(record: dict) -> str:
    m = record["metrics"]
    tail = record["wall_s.tail"]
    tail_text = (f"p{tail['percentile']:g} {tail['value']:.6g} s of {tail['n']}"
                 if tail else f"- ({record['attempted']} ops)")
    return (f"{record['workload']:<15} {m['wall_s']['value']:>12.6g} s {m['setup_s']['value']:>9.4g} s "
            f"{m['peak_rss_mb']['value']:>8.1f} MB {record['fail_ratio']:>6.3g} "
            f"({record['failed']}/{record['attempted']})  {tail_text}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    parser.add_argument("--save", default=None, help="write all run records to this JSON file")
    args = parser.parse_args(argv)
    # a terminated report unwinds, so run.spawn() kills and reaps its op process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    records: dict[str, dict] = {}
    print(f"{'workload':<15} {'wall_s':>14} {'setup_s':>11} {'peak_rss_mb':>11} "
          f"fail_ratio       wall_s.tail")
    try:
        for name in workloads.WORKLOADS:
            record = run.run(name, args.seed, args.seconds, False, args.perturb_reference)
            records[name] = {"untraced": record}
            print(_row(record), flush=True)
        if args.trace:
            for name in workloads.WORKLOADS:
                records[name]["traced"] = run.run(name, args.seed, args.seconds, True,
                                                  args.perturb_reference)
    except run.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        print(f"\n{'per-layer metric (per op)':<40}"
              + "".join(f"{name:>16}" for name in workloads.WORKLOADS))
        for metric, unit in tracing.PER_LAYER:
            cells = "".join(f"{records[name]['traced']['metrics'][metric]['value']:>16.6g}"
                            for name in workloads.WORKLOADS)
            print(f"{metric + ' [' + unit + ']':<40}{cells}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": records},
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
