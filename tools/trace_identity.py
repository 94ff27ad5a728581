#!/usr/bin/env python3
"""Checks that two run_scenario binaries give byte-identical outputs.

    trace_identity.py BASE_RUN_SCENARIO CHANGE_RUN_SCENARIO

Runs every preset that run_scenario's usage text lists, at seeds 1, 7 and
1009 for 120 simulated seconds, once with each binary, and compares the
`--out-trace` and `--csv-links` files byte for byte.  Prints one line per
run and exits 1 naming every run whose outputs differ or that failed on
either side, 0 when all are identical.  It takes no other arguments: the
grid is fixed so that one result means the same thing on every change.
"""
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7, 1009)
DURATION = "120"


def presets(binary):
    """The scenario names in `binary`'s usage text (`--scenario a|b|...`)."""
    usage = subprocess.run([binary, "--help"], capture_output=True, text=True)
    match = re.search(r"--scenario ([\w|]+)", usage.stderr)
    if match is None:
        sys.exit(f"trace_identity: no --scenario list in {binary}'s usage text")
    return match.group(1).split("|")


def outputs(binary, scenario, seed):
    """Runs one scenario in a fresh directory; returns (trace bytes, links
    bytes), or why the run failed."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, links = Path(tmp, "trace.bin"), Path(tmp, "links.csv")
        run = subprocess.run(
            [binary, "--scenario", scenario, "--duration", DURATION,
             "--seed", str(seed), "--out-trace", str(trace),
             "--csv-links", str(links)],
            capture_output=True, text=True)
        if run.returncode != 0:
            return f"exit {run.returncode}: {run.stderr.strip()[-200:]}"
        return trace.read_bytes(), links.read_bytes()


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: trace_identity.py BASE_RUN_SCENARIO CHANGE_RUN_SCENARIO")
    base, change = (str(Path(p).resolve()) for p in sys.argv[1:])
    names = presets(base)
    if presets(change) != names:
        sys.exit("trace_identity: the two binaries list different presets")
    mismatches = []
    for scenario in names:
        for seed in SEEDS:
            a, b = outputs(base, scenario, seed), outputs(change, scenario, seed)
            if isinstance(a, str) or isinstance(b, str):
                verdict = (f"FAILED (base: {a if isinstance(a, str) else 'ok'}; "
                           f"change: {b if isinstance(b, str) else 'ok'})")
            else:
                differ = [n for n, x, y in zip(("trace", "links"), a, b) if x != y]
                verdict = "differs: " + ", ".join(differ) if differ else "identical"
            print(f"{scenario} seed {seed}: {verdict}", flush=True)
            if verdict != "identical":
                mismatches.append(f"{scenario} seed {seed}: {verdict}")
    total = len(names) * len(SEEDS)
    print(f"{total - len(mismatches)} of {total} runs identical")
    for m in mismatches:
        print(f"MISMATCH {m}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
