#!/usr/bin/env python3
"""Build and run the Duplex simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, depending on the repository's crates by path) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset, then runs
the workload in a child process. With `--trace 0` it then runs
ONCE_PROCESSES fresh processes that each time one cold set-up and run
one repetition (`perfbench --once`), and adds two metrics:

* `setup_s`: the median cold set-up, so one-time work such as HBM
  calibration counts;
* `peak_rss_mb`: the median peak resident memory of those processes,
  each holding exactly one set-up and one repetition.

The last line of standard output is the result JSON. Exits non-zero
without a result when the build or the run fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ONCE_PROCESSES = 5


def build():
    """Build the benchmark; return the binary's path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_child(cmd):
    """Run cmd to completion; return (exit code, stdout, peak RSS in MiB)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reports the resource usage of this one child, where
    # getrusage(RUSAGE_CHILDREN) would also count the cargo build.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss / 1024.0


def arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv and argv.index(flag) + 1 < len(argv) else None


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, out, _ = run_child([binary] + argv)
    lines = out.splitlines()
    if code != 0 or not lines:
        print(out, end="", file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if arg(argv, "--trace") == "0":
        setups, peaks = [], []
        for _ in range(ONCE_PROCESSES):
            cmd = [binary, "--workload", arg(argv, "--workload"), "--seed", arg(argv, "--seed"), "--once"]
            ocode, oout, opeak = run_child(cmd)
            if ocode != 0:
                return ocode
            setups.append(float(oout.splitlines()[-1]))
            peaks.append(opeak)
        print(f"cold set-ups (s): {setups}; peak RSS (MiB): {peaks}", file=sys.stderr)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update(result["metrics"])
        metrics["peak_rss_mb"] = {"value": statistics.median(peaks), "unit": "MB"}
        result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
