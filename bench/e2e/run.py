#!/usr/bin/env python3
"""Builds adpm_bench from source and runs one workload of the benchmark.

    python3 bench/e2e/run.py --workload fleet-zoo --seed 1 --seconds 15 --trace 0

Run from the repository root.  The first call configures and builds
bench/e2e (a standalone CMake project over ../../src) into .bench_build/;
later calls rebuild incrementally.  Build output goes to
.bench_build/build.log, so the last line of standard output is adpm_bench's
JSON result.  Arguments after the four named ones are passed to adpm_bench
unchanged (for example --results-dir, --allow-untrusted).  Exits with
adpm_bench's code, or 2 when the sources are missing or the build fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("run.py: library sources not found under %s\n"
                         % (ROOT / "src"))
        sys.exit(2)
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if (BUILD / "CMakeCache.txt").exists() else [configure]
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(BUILD / "build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\nrun.py: build failed\n")
                sys.exit(2)


def git_sha() -> str:
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, env=env)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()
    build()
    command = [str(BUILD / "adpm_bench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--git-sha", git_sha(), *extra]
    # Own process group: an interrupted run takes the server child with it.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait()
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
