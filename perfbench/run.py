#!/usr/bin/env python3
"""Run the NJ benchmark on one workload at one seed.

    python3 perfbench/run.py --workload webkit --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the benchmark together
with the repository's main sources (sbt, offline) into perfbench/.work/;
later runs reuse that build while no source file changed. Each run then
starts one fresh JVM (njbench.Main) whose last line of standard output is
the result as one JSON object, which this script passes through.

Exits non-zero, printing no result, when the repository's sources are not
next to the benchmark, when the build fails, or when the run fails or
outlives its time limit.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
PROGRAM_SOURCES = os.path.join(REPO, "src", "main", "scala")
RUN_TIMEOUT_S = 170
HEAP = "3g"

JVM_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def fail(msg):
    print("njbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties"),
             os.path.join(HERE, "src", "main"), PROGRAM_SOURCES]
    for root in roots:
        if os.path.isfile(root):
            yield root
        for d, dirs, files in os.walk(root):
            dirs.sort()
            for f in sorted(files):
                yield os.path.join(d, f)


def classpath():
    """Build if any source changed since the last build; return the classpath."""
    stamp = hashlib.sha256()
    for f in source_files():
        stamp.update(os.path.relpath(f, REPO).encode())
        with open(f, "rb") as fh:
            stamp.update(fh.read())
    stamp = stamp.hexdigest()
    stamp_file = os.path.join(WORK, "build.stamp")
    cp_file = os.path.join(WORK, "classpath.txt")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read()
    os.makedirs(WORK, exist_ok=True)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Compile/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        fail("build failed (sbt exit code %d)" % proc.returncode)
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


def main(argv):
    if not os.path.isfile(os.path.join(PROGRAM_SOURCES, "repro", "core", "NegationJoin.scala")):
        fail("the program's sources (src/main/scala) are not next to the benchmark")
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in argv:
            fail("missing " + flag)
    cp = classpath()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-Xms" + HEAP, "-Xmx" + HEAP] + JVM_FLAGS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dspark.local.dir=" + os.path.join(WORK, "spark-local"),
        "-Dspark.sql.warehouse.dir=" + os.path.join(WORK, "warehouse"),
        "-Dspark.driver.host=127.0.0.1",
        "-cp", cp, "njbench.Main"] + argv + ["--out", os.path.join(WORK, "traces")])
    proc = subprocess.Popen(cmd, cwd=WORK, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        fail("run failed (exit code %d)" % proc.returncode)
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
