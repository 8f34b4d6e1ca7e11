#!/usr/bin/env python3
"""Build and run the UnSNAP benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark together with the repository's library and daemon in
.bench_build (or $CARGO_TARGET_DIR when set); later calls only check the
build. Build output goes to stderr; the last line on stdout is the
benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    log = sys.stderr
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=log, stderr=log)


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=ROOT).returncode
    work_dir = os.path.join(build_dir, "perfbench-work")
    cmd = [os.path.join(build_dir, "perfbench"), *argv, "--work-dir", work_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
