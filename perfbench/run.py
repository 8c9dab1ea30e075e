#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench/perfbench.exe with dune into
.bench_build (so it never contends with a developer's _build; the shared dune
cache is disabled so nothing is written outside the checkout), then runs it
with the same arguments.  The program's last output line is the JSON result;
this wrapper checks that it names exactly the metrics BENCHMARK.json lists
for the run's kind and exits non-zero otherwise.  Build output goes to
standard error.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: %s timed out after %ds\n" % (cmd[0], timeout))
        sys.exit(3)
    return proc.returncode, out


def main():
    root = os.getcwd()
    for needed in ("dune-project", "BENCHMARK.json", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write("perfbench: run from the repository root (%s missing)\n" % needed)
            sys.exit(2)
    code, _ = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        sys.stderr,
    )
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)
    code, out = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        if lines:
            print(lines[-1])
        sys.exit(code or 1)
    result = json.loads(lines[-1])
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "1"
    kind = "per_layer" if traced else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        sys.stderr.write(
            "perfbench: metrics differ from BENCHMARK.json %s: missing %s, extra %s\n"
            % (kind, sorted(set(want) - set(got)), sorted(set(got) - set(want)))
        )
        sys.exit(4)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
