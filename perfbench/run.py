#!/usr/bin/env python3
"""Run one workload of the k-VCC benchmark from the root of a checkout.

    python3 perfbench/run.py --workload local-cit-sweep --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark with sbt when their sources changed
since the last build in this checkout, then runs the benchmark JVM. The last
line on stdout is the result object; build output goes to stderr. Extra
arguments (--dataset-seed, --record) are passed through to
the benchmark JVM (see perfbench/README.md).
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# Heap of the benchmark JVM; recorded in every result file's manifest.
XMX = "4g"
# A run must end well inside the 180 s limit, not counting the build.
RUN_TIMEOUT_S = 170

# The module opens spark-submit passes on JDK 17+ (as the root build does for
# its forked JVMs); GraphX needs them.
OPENS = [
    "java.base/" + p + "=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
]

# What the build reads: the program's build and sources, and the benchmark's.
SOURCES = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
           "perfbench/project", "perfbench/src"]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def source_hash():
    h = hashlib.sha256()
    for rel in SOURCES:
        top = os.path.join(ROOT, rel)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in files)
        for p in paths:
            if p.endswith((".scala", ".sbt", ".properties", ".java")):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build(stamp):
    """Returns the benchmark's runtime classpath, building if needed."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp.txt")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(cp_file) and os.path.exists(stamp_file):
            with open(stamp_file) as f:
                if f.read().strip() == stamp:
                    with open(cp_file) as f:
                        return f.read().strip()
        log("building the program and the benchmark with sbt")
        t0 = time.time()
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             # sbt's per-user state and temporary files go to the checkout;
             # only the toolchain and dependency caches are read from outside.
             "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
             "-Dsbt.ivy.home=" + os.path.join(BUILD, "ivy"),
             "-Djava.io.tmpdir=" + tmp, "-Djna.tmpdir=" + tmp, "-J-XX:-UsePerfData",
             # sbt binds a unix socket under the temporary directory at boot;
             # in a checkout with a long path the name exceeds the socket
             # length limit and sbt exits with code 2 unless told to go on.
             "-Dsbt.server.forcestart=true",
             "compile", "export Runtime/fullClasspath"],
            cwd=BENCH, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines or ".jar" not in lines[-1]:
            log("build failed")
            sys.exit(proc.returncode or 1)
        classpath = lines[-1].strip()
        with open(cp_file, "w") as f:
            f.write(classpath + "\n")
        with open(stamp_file, "w") as f:
            f.write(stamp + "\n")
        log("built in %.0f s" % (time.time() - t0))
        return classpath


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = ap.parse_known_args()
    # Turn a polite stop into an exception so the JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))):
        log("no program sources next to perfbench/ (expected build.sbt and src/main/scala/repro "
            "at %s); run from the root of a checkout" % ROOT)
        sys.exit(2)

    stamp = source_hash()
    classpath = build(stamp)
    results = os.path.join(BUILD, "results")
    tmp = os.path.join(BUILD, "tmp")
    cmd = (["java"] + ["--add-opens=" + o for o in OPENS] + [
        "-Djdk.reflect.useDirectMethodHandleAccessor=false",
        "-XX:-UsePerfData",
        # The throughput collector with a fixed-size, pre-touched heap: it gave
        # faster and steadier passes than the default G1 with a growing heap.
        "-XX:+UseParallelGC",
        "-Xms" + XMX,
        "-XX:+AlwaysPreTouch",
        "-Xmx" + XMX,
        "-Djava.io.tmpdir=" + tmp,
        "-cp", classpath, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--reference", os.path.join(BENCH, "reference"), "--results", results,
        "--git-sha", git_sha(), "--source-sha", stamp, "--xmx", XMX,
    ] + extra)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S if "--record" not in extra else None)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        code = 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
