"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload pla-hier --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The OCaml benchmark
(perfbench/main.ml) is built with dune into .bench_build/, then run with
the same arguments; its standard output, whose last line is the result
object, passes through unchanged.  Build output goes to standard error.
Exits non-zero, printing no result, if the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def main() -> int:
    # No shared dune cache: build and read only inside this tree.
    env = dict(os.environ, DUNE_CACHE="disabled")
    # Outside an opam environment, dune is reached through opam.
    dune = ["dune"]
    if not shutil.which("dune") and shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, "perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
