#!/usr/bin/env python3
"""Build and run the fastbar benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the `perfbench` crate (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`, then runs it with
the given arguments. The crate's last line of standard output is the JSON
result; the exit code is the crate's (non-zero on any failed operation, or
when the build fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary, "--work-dir", work_dir] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
