#!/usr/bin/env python3
"""Build the benchmark from source, then run it in place of this process.

Run from the root of a whisper source tree:

    python3 perfbench/run.py --workload replay-hot --seed 0 --seconds 20 --trace 0

All arguments go to perfbench/main.exe (see perfbench/README.md).  Exits
non-zero without a result when the tree holds no whisper sources or the
build fails.
"""

import os
import shutil
import subprocess
import sys


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", os.path.join("lib", "sim", "runner.ml")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found: not a whisper source tree",
                  file=sys.stderr)
            return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", root, "./perfbench/main.exe"],
        cwd=root, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    os.chdir(root)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
