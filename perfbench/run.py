#!/usr/bin/env python3
"""Launcher of the planning-pipeline benchmark.

    python3 perfbench/run.py --workload perfect-oracle --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call compiles the program
(`src/main/scala`) together with the benchmark (`perfbench/src`) with the
Scala compiler shipped in Spark's jar directory, and caches the classes and
the classpath in `perfbench/.build`. Every later call whose sources are
unchanged reuses them, so compilation is never part of a measured run.

Each call then starts exactly one JVM with a fixed heap and garbage
collector, waits for it, and exits with its exit code. The JVM prints the
result object as the last line of standard output.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / ".build"
MAIN_SOURCES = ROOT / "src" / "main" / "scala"
BENCH_SOURCES = BENCH / "src"

SCALA_VERSION = "2.13.17"
DUCKDB_JAR = "org/duckdb/duckdb_jdbc/1.0.0/duckdb_jdbc-1.0.0.jar"

# Heap and generation sizes are fixed, and the collector's adaptive resizing
# is off, so that collection work does not drift between runs. The live heap
# of every workload is under 70 MB. The parallel collector with two threads
# leaves the other cores of a small machine to the measured thread.
JVM_OPTS = [
    "-Xms1g", "-Xmx1g", "-Xmn512m", "-XX:-UseAdaptiveSizePolicy",
    "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def java_bin():
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    return str(exe) if exe and exe.exists() else "java"


def spark_jars():
    jars = Path(os.environ.get("SPARK_HOME", "/opt/spark")) / "jars"
    if not (jars / f"scala-compiler-{SCALA_VERSION}.jar").exists():
        fail(f"no Scala {SCALA_VERSION} compiler in {jars}")
    return jars


def duckdb_jar():
    caches = [os.environ.get("COURSIER_CACHE"), str(Path.home() / ".cache" / "coursier")]
    for cache in filter(None, caches):
        for jar in sorted(Path(cache).glob("**/" + DUCKDB_JAR)):
            return jar
    fail("duckdb_jdbc 1.0.0 not found in the coursier cache")


def sources():
    if not MAIN_SOURCES.is_dir():
        fail(f"program sources not found: {MAIN_SOURCES}")
    main = sorted(MAIN_SOURCES.rglob("*.scala"))
    bench = sorted(BENCH_SOURCES.rglob("*.scala"))
    if not main or not bench:
        fail("no Scala sources to compile")
    return main + bench


def build():
    """Compile once per source state; return the run classpath."""
    jars = spark_jars()
    duck = duckdb_jar()
    srcs = sources()
    digest = hashlib.sha256()
    for part in [str(jars), str(duck)] + [str(s.relative_to(ROOT)) for s in srcs]:
        digest.update(part.encode() + b"\0")
    for s in srcs:
        digest.update(s.read_bytes())
    key = digest.hexdigest()

    classes = BUILD / "classes"
    stamp = BUILD / "stamp"
    classpath = [str(BENCH / "conf"), str(classes), str(jars / "*"), str(duck)]
    if stamp.exists() and stamp.read_text() == key and classes.is_dir():
        return classpath

    BUILD.mkdir(exist_ok=True)
    tmp = BUILD / f"classes.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    compiler_cp = os.pathsep.join(
        str(jars / f"scala-{m}-{SCALA_VERSION}.jar") for m in ("compiler", "library", "reflect"))
    cmd = [java_bin(), "-Xss16m", "-Xmx2g", "-cp", compiler_cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(tmp),
           "-cp", os.pathsep.join([str(jars / "*"), str(duck)])] + [str(s) for s in srcs]
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(key)
    return classpath


def main(argv):
    classpath = build()
    tmpdir = BUILD / "tmp"
    shutil.rmtree(tmpdir, ignore_errors=True)
    tmpdir.mkdir(parents=True)
    entry = "repro.perfbench.SelfTest" if argv[:1] == ["--self-test"] else "repro.perfbench.Main"
    cmd = [java_bin()] + JVM_OPTS + [
        f"-Djava.io.tmpdir={tmpdir}",
        "-cp", os.pathsep.join(classpath),
        entry,
    ] + argv
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
