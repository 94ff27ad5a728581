#!/usr/bin/env python3
"""Runs the repo benchmark on two checkouts in alternating pairs and judges
every end-to-end metric against BENCHMARK.json's bounds.

    perf_pairs.py --base DIR --change DIR --seed 1009 \\
        --workload canonical_sim:10 --workload lossy_figures:5 \\
        [--claim canonical_sim:wall_s] [--traced-pairs 1] --out BENCH.json

Each `--workload NAME:PAIRS` runs PAIRS pairs of
`DIR/perfbench/run.py --workload NAME --seed S --seconds T --trace 0`, one
on each checkout, alternating which side runs first (pair 0 runs the base
first).  T is BENCHMARK.json's `run_seconds`, the same on both sides.
`--traced-pairs N` adds N pairs of `--trace 1` runs per workload, stored
but not judged: they show where a saving sits, layer by layer.  Each such
workload also records `per_layer`: for every `per_layer` metric in
BENCHMARK.json, the median over the traced runs of each side
(`{name: {"base": x, "change": y}}`), and the layers non-zero on either
side are printed.

The output file keeps every run's provenance line and result line verbatim,
and for each end-to-end metric the per-side median and quartiles and a
verdict (docs/PERFORMANCE.md, "Claiming a gain"):

- `better`: over at least ten pairs, the change wins at least nine tenths
  of them, ties counting for neither, and the medians differ by more than
  the base's interquartile range;
- `unresolved`: otherwise, when either side's interquartile range exceeds
  the bound as a share of its median, unless every change run beats every
  base run (then `no worse`);
- `worse`: the change's median is worse than the base's by more than the
  bound;
- `no worse`: anything else.

Each workload also records `digests_identical`: whether every run, on
both sides and traced or not, reported the same `trace_digest` in its
provenance line, and the same `pass_digest` where the workload reports
one.  True means the change did not move the benchmark's outputs.

`--claim WORKLOAD:METRIC` also records that metric's wins, ties and
losses over pairs and the median difference against the base's
interquartile range, and whether its verdict is `better`.  Reads
BENCHMARK.json and perfbench/ from the base checkout and writes neither.
Exits 1 if any run is incorrect, has a failed op or gives no result.
"""
import argparse
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def git_head(root):
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest(root):
    """SHA-256 over src/'s relative paths and contents: what the benchmark built."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    prov = next((l for l in lines if l.startswith("provenance ")), None)
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        sys.stderr.write(done.stderr[-4000:])
    return {"started_utc": started, "exit_code": done.returncode, "provenance": prov,
            "result": lines[-1] if lines else None}, result


def digests(run):
    """The output digests a run's provenance line reports, or None without one."""
    if run["provenance"] is None:
        return None
    prov = json.loads(run["provenance"].partition(" ")[2])
    return {k: prov.get(k) for k in ("trace_digest", "pass_digest")}


def ok(result):
    return result is not None and result["correct"] and result["failed"] == 0


def better_than(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def judge(spec, base, change):
    """Verdict for one metric, given per-pair values (base[i] pairs change[i])."""
    lower = spec["better"] == "lower"
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(better_than(c, b, lower) for b, c in zip(base, change))
    losses = sum(better_than(b, c, lower) for b, c in zip(base, change))
    gain = (bmed - cmed) if lower else (cmed - bmed)
    worse_share = -gain / bmed if bmed else (0.0 if gain >= 0 else float("inf"))
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    every_run_better = all(better_than(c, b, lower) for c in change for b in base)
    pairs = len(base)
    if pairs >= 10 and wins >= 0.9 * pairs and gain > bq3 - bq1:
        verdict = "better"
    elif spread > spec["bound"]:
        verdict = "no worse" if every_run_better else "unresolved"
    elif worse_share > spec["bound"]:
        verdict = "worse"
    else:
        verdict = "no worse"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "values": base},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": change},
        "pairs": pairs, "wins": wins, "ties": pairs - wins - losses, "losses": losses,
        "median_gain": gain, "base_iqr": bq3 - bq1, "worse_share": worse_share,
        "spread": spread, "identical": base == change and len(set(base)) == 1,
        "verdict": verdict,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="changed checkout")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    ap.add_argument("--traced-pairs", type=int, default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["base"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]
    out = {
        "seed": args.seed, "seconds": seconds, "claim": args.claim,
        "sides": {k: {"dir": v.name, "git_head": git_head(v), "src_sha256": src_digest(v)}
                  for k, v in sides.items()},
        "workloads": {},
    }
    all_ok = True
    for item in args.workload:
        name, _, count = item.partition(":")
        n = int(count or 1)
        pairs, traced = [], []
        values = {s: {m: [] for m in specs} for s in sides}
        layer_values = {s: {m: [] for m in layers} for s in sides}
        for i in range(n + args.traced_pairs):
            trace = int(i >= n)
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {"first": order[0], "trace": trace}
            for side in order:
                run, result = run_once(sides[side], name, args.seed, seconds, trace)
                pair[side] = run
                all_ok = all_ok and ok(result)
                if result is not None and trace == 0:
                    for m in specs:
                        values[side][m].append(result["metrics"][m]["value"])
                if result is not None and trace == 1:
                    for m in layers:
                        if m in result["metrics"]:
                            layer_values[side][m].append(result["metrics"][m]["value"])
                wall = "wall_s" if trace == 0 else "obs.traced_wall_s"
                print(f"{name} pair {i} {side}: "
                      + (f"{wall}={result['metrics'][wall]['value']}" if result else "NO RESULT")
                      + ("" if ok(result) else " INCORRECT"), flush=True)
            (traced if trace else pairs).append(pair)
        seen = [digests(pair[s]) for pair in pairs + traced for s in sides]
        entry = {"pairs": pairs, "traced_pairs": traced, "metrics": {},
                 "digests_identical": None not in seen and all(d == seen[0] for d in seen)}
        print(f"{name:16} {'digests_identical':22} {entry['digests_identical']}", flush=True)
        if traced:
            entry["per_layer"] = {
                m: {s: statistics.median(layer_values[s][m]) if layer_values[s][m] else None
                    for s in sides}
                for m in layers}
            for m, medians in entry["per_layer"].items():
                if any(medians.values()):
                    print(f"{name:16} {m:30} base {medians['base']!s:<22} "
                          f"change {medians['change']}", flush=True)
        if all(len(values[s][m]) == len(pairs) for s in sides for m in specs):
            for m, spec in specs.items():
                entry["metrics"][m] = judge(spec, values["base"][m], values["change"][m])
                print(f"{name:16} {m:22} {entry['metrics'][m]['verdict']}", flush=True)
        out["workloads"][name] = entry

    if args.claim:
        workload, _, metric = args.claim.partition(":")
        j = out["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        out["claim_result"] = None if j is None else {
            "pairs": j["pairs"], "wins": j["wins"], "ties": j["ties"], "losses": j["losses"],
            "base_median": j["base"]["median"], "change_median": j["change"]["median"],
            "median_gain": j["median_gain"], "base_iqr": j["base_iqr"],
            "met": j["verdict"] == "better",
        }
        print(f"claim {args.claim}: {out['claim_result']}", flush=True)
    out["all_runs_correct"] = all_ok
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
