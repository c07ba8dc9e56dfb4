#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator's libraries and the
benchmark driver from source into .bench_build/perfbench (incremental after
the first run), then runs one workload. The last line of stdout is the JSON
result; build output and progress go to stderr. Exits non-zero, printing no
result, when the build fails, e.g. in a directory without the simulator's
sources. Traced runs (--trace 1) also write their spans as a Chrome trace to
.bench_build/spans/.

Extra driver flags (--tiny, --prefix, ...) pass through; see
perfbench/src/main.cpp.
"""

import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# The driver must finish within 180 s of its start; leave room to report.
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def configure():
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if configure() != 0:
            # A cache left by another source tree cannot be reused.
            shutil.rmtree(BUILD, ignore_errors=True)
            if configure() != 0:
                return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    return rc == 0 and os.path.exists(BINARY)


def main(argv):
    start = time.monotonic()
    if not build():
        log("build failed")
        return 1
    args = list(argv)
    if "--trace" in args and "--span-out" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            spans = os.path.join(ROOT, ".bench_build", "spans")
            os.makedirs(spans, exist_ok=True)
            name = "run"
            if "--workload" in args and args.index("--workload") + 1 < len(args):
                name = args[args.index("--workload") + 1]
            if "--seed" in args and args.index("--seed") + 1 < len(args):
                name += "-seed" + args[args.index("--seed") + 1]
            args += ["--span-out", os.path.join(spans, name + ".json")]
    log(f"built in {time.monotonic() - start:.1f} s")
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
