#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median and spread.

The spread is the distance between the first and third quartile of the
values, as a share of their median (statistics.quantiles(values, n=4)).
Run from the repository root:

    python3 perfbench/spread.py --workloads paper_h2,wide_full --seeds 1-10
    python3 perfbench/spread.py --workloads analytic --seeds 1-5 --trace 1

Each run's JSON line is appended to --log (one object per line, with the
workload and seed added) so a long sweep can be inspected afterwards.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(s):
    out = []
    for part in s.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="paper_h2,wide_full,analytic")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", default=None)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        values = {}
        for seed in a.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", a.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            r = json.loads(lines[-1])
            if not r["correct"]:
                print(f"{w} seed {seed}: {r['failed']} of {r['attempted']} failed\n{p.stderr}",
                      file=sys.stderr)
                ok = False
            if a.log:
                with open(a.log, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, **r}) + "\n")
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {len(a.seeds)} seeds")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = f"{(q3 - q1) / med:.4f}"
            else:
                spread = "-"
            b = bounds.get(name)
            flag = ""
            if b is not None and spread != "-" and name != "setup_s" and float(spread) > b / 3:
                flag = f"  above a third of bound {b}"
            print(f"  {name:<30} median {med:<14.6g} spread {spread}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
