#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Run from the repository root. The binary prints `#` report lines and, last,
one JSON result line, which this script passes through unchanged; it also
appends the result, tagged with workload, seed and trace flag, to
`perfbench/results/runs.jsonl`, the result set `compare` reads. Cargo's
output goes to stderr. The exit code is the binary's (non-zero when an
answer was wrong or the build failed).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
# One run's own limit; the timed loop is at most a minute.
RUN_TIMEOUT_S = 170


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def flag(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def run(args):
    binary = build()
    proc = subprocess.Popen([binary, *args, "--results-dir", RESULTS],
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        record = {"workload": flag(args, "--workload"), "seed": flag(args, "--seed"),
                  "seconds": flag(args, "--seconds"), "trace": flag(args, "--trace"),
                  "result": json.loads(lines[-1])}
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, "runs.jsonl"), "a") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode


def main(argv):
    if argv[:1] == ["compare"]:
        sys.path.insert(0, HERE)
        import compare
        return compare.main(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
