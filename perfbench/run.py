#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program and the benchmark
executables are built from source with dune into .bench_build/, inputs and
Chrome-trace files go to .bench_out/<workload>/.  The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT = 170

EXES = {
    "fig4_sparse": "perfbench/fig/figbench.exe",
    "fig9_dense": "perfbench/fig/figbench.exe",
    "cli_treebank": "perfbench/app/appbench.exe",
    "serve_mix": "perfbench/app/appbench.exe",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_checkout():
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    for need in ("dune-project", "bin/x3.ml", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a source checkout of the program: %s is missing" % need)


def build(env, workload):
    """Build the workload's executable (and the x3 binary for the app ones)."""
    targets = ["./" + EXES[workload]]
    if EXES[workload].startswith("perfbench/app/"):
        targets.append("./bin/x3.exe")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release"] + targets
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(EXES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    check_checkout()

    out = os.path.join(ROOT, OUT_DIR, a.workload)
    shutil.rmtree(out, ignore_errors=True)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build(env, a.workload)

    exe = os.path.join(ROOT, BUILD_DIR, "default", EXES[a.workload])
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           # relative, so the daemon's unix socket path stays short
           "--out", os.path.relpath(out, ROOT),
           "--x3", os.path.join(ROOT, BUILD_DIR, "default", "bin", "x3.exe")]
    # Its own process group, so a daemon it leaves behind is stopped too.
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    lines = stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited with %s" % (EXES[a.workload], p.returncode))
    result = json.loads(lines[-1])
    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
