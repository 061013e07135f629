#!/usr/bin/env python3
"""Build and run the hands-free optimizer benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from the checkout's source into
the build directory ($CARGO_TARGET_DIR, default .bench_build), with every
Go cache kept there too, and run as its own process under a memory cap, so
an out-of-memory crash fails only that run. Its standard output is relayed;
the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

For a workload named in BENCHMARK.json the metrics are exactly the
end-to-end metrics it declares (--trace 0) or its per-layer metrics
(--trace 1); anything else the program measured is printed on the line
before, under "undeclared_metrics". If the workload process dies, a failed
result is printed with the crash summary on standard error, and the exit
code is 1.
"""

import argparse
import json
import os
import re
import resource
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Some workloads hit an engine defect that allocates without bound. The
# workload process may map at most this share of the host's memory, so the
# defect crashes this run instead of bringing an out-of-memory kill on the
# host.
MEMORY_SHARE = 0.5
BUILD_TIMEOUT = 800
RUN_TIMEOUT = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        code, out, _ = run_group(["git", "-C", ROOT, "rev-parse", "HEAD"], 30,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if code != 0:
            return "unknown"
        sha = out.decode().strip()
        code, out, _ = run_group(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"], 30,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return sha + ("+modified" if code == 0 and out.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build(build_dir):
    """Build the benchmark binary from the checkout's source."""
    binary = os.path.join(build_dir, "perfbench")
    env = dict(os.environ)
    home = os.path.join(build_dir, "home")
    env.update({
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        "HOME": home,
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
    })
    os.makedirs(home, exist_ok=True)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    cmd = ["go", "build", "-buildvcs=false", "-ldflags", "-X main.commit=" + commit(), "-o", binary, "."]
    try:
        code, _, err = run_group(cmd, BUILD_TIMEOUT, cwd=HERE, env=env, stderr=subprocess.PIPE)
    except FileNotFoundError:
        fail("the go toolchain is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if code != 0:
        sys.stderr.write(err.decode(errors="replace"))
        fail("build failed")
    return binary


def declared():
    """Metric names BENCHMARK.json declares, by workload and trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    return {w["name"]: names for w in bench["workloads"]}


def memory_cap():
    """MEMORY_SHARE of the host's memory (MemTotal), in bytes."""
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(int(line.split()[1]) * 1024 * MEMORY_SHARE)
    fail("no MemTotal in /proc/meminfo")


def crash_summary(stderr):
    """The Go runtime's fatal error and the top frames of the goroutine that
    raised it, if the process died with one."""
    lines = stderr.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("fatal error:") or line.startswith("panic:"):
            frames = [l for l in lines[i:i + 40] if l and not l.startswith("\t")]
            return "\n".join(frames[:14])
    return "\n".join(lines[-5:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(build_dir, "traces")]
    cap = memory_cap()
    try:
        code, out, err = run_group(cmd, RUN_TIMEOUT, cwd=ROOT,
                                   preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("workload process timed out after %ds" % RUN_TIMEOUT)
    stderr = err.decode(errors="replace")
    sys.stderr.write(stderr)
    lines = [l for l in out.decode(errors="replace").splitlines() if l.strip()]

    if code != 0:
        # Crash accounting: the run counts as one failed operation, plus the
        # lifecycles it completed before dying.
        done = len(re.findall(r"^perfbench: lifecycle \d+ done", stderr, re.M))
        why = "signal %d" % -code if code < 0 else "exit code %d" % code
        print("run.py: workload process died (%s):\n%s" % (why, crash_summary(stderr)), file=sys.stderr)
        for l in lines:
            print(l)
        print(json.dumps({"correct": False, "attempted": done + 1, "failed": 1, "metrics": {}}))
        sys.exit(1)

    if not lines:
        fail("workload process printed no result")
    result = json.loads(lines[-1])
    names = declared().get(args.workload)
    if names is not None:
        want = names[args.trace]
        missing = [n for n in want if n not in result["metrics"]]
        if missing:
            fail("workload %s reported no %s" % (args.workload, ", ".join(missing)))
        extra = {n: v for n, v in result["metrics"].items() if n not in want}
        result["metrics"] = {n: result["metrics"][n] for n in want}
        if extra:
            lines.insert(-1, json.dumps({"undeclared_metrics": extra}))
    for l in lines[:-1]:
        print(l)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
