#!/usr/bin/env python3
"""Build this checkout's servers and the perfbench binary, then run one workload.

    python3 perfbench/run.py --workload join-agg --seed 1 --seconds 10 --trace 0

Workloads: point-lookup, join-agg, sort-spill, dist-agg, or all. Everything
the run builds or writes goes under .bench_build/ (or $CARGO_TARGET_DIR) in
the checkout: the Go build cache, the binaries, each workload's database,
the traced run's spans and the saved results. The last line of output is
the result object; compare two saved results with

    .bench_build/bin/perfbench -compare OLD.json NEW.json
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 170  # seconds one workload's run may take once built


def go_env(build):
    env = dict(os.environ)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def build_all(build, env):
    bin_dir = os.path.join(build, "bin")
    steps = [
        (ROOT, ["go", "build", "-o", bin_dir + os.sep, "./cmd/volcano-serve", "./cmd/volcano-worker"]),
        (HERE, ["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        p = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write("run.py: %s failed in %s:\n%s" % (" ".join(cmd), cwd, p.stdout))
            return None
    return bin_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    env = go_env(build)
    bin_dir = build_all(build, env)
    if bin_dir is None:
        return 1
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        "-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds), "-trace", str(a.trace),
        "-bin", bin_dir, "-work", os.path.join(build, "work"), "-root", ROOT,
    ]
    # perfbench and the servers it starts share a new process group, so
    # a run that overstays its time, or a perfbench that dies before it has
    # stopped its servers, leaves nothing running.
    timeout = RUN_TIMEOUT * (4 if a.workload == "all" else 1)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: run exceeded %ds, stopping it\n" % timeout)
        code = 1
    except KeyboardInterrupt:
        code = 1
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    p.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
