#!/usr/bin/env python3
"""Build the stack benchmark from source and run one workload.

    python3 stackbench/run.py --workload serve_small --seed 1 \
        --seconds 40 --trace 0

Run from the repository root.  The benchmark binary is configured and built in
Release mode into $CARGO_TARGET_DIR (default .bench_build), then run
with the same arguments; its last output line is the result JSON.
Full results and span files land in .bench_out/.

Host-shape guard:
  --record-baseline PATH  copy the full result to PATH, refusing Debug
                          and sanitizer builds.
  --compare PATH          compare against a recorded baseline, refusing
                          to compare absolutes across host shapes; the
                          verdicts go to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ring_long", "serve_small", "serve_fanout")
# Host-shape fields that must agree before absolutes are compared.
SHAPE_KEYS = ("cores", "build_type", "compiler", "lto", "sanitizers")


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "stackbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "stackbench")


def load_bounds():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def record_baseline(result, path):
    shape = result["host_shape"]
    if shape.get("build_type") != "release" or shape.get("sanitizers"):
        sys.exit("stackbench: refusing to record a baseline from a %s build "
                 "with sanitizers=%r" % (shape.get("build_type"),
                                         shape.get("sanitizers")))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print("stackbench: baseline recorded to %s" % path, file=sys.stderr)


def compare(result, path):
    with open(path) as f:
        base = json.load(f)
    differ = [k for k in SHAPE_KEYS
              if base["host_shape"].get(k) != result["host_shape"].get(k)]
    if differ:
        sys.exit("stackbench: host shapes differ in %s; refusing to compare "
                 "absolutes" % ", ".join(differ))
    if (base["workload"], base["trace"]) != (result["workload"],
                                             result["trace"]):
        sys.exit("stackbench: baseline is a different workload or mode")
    bounds = load_bounds()
    for name, now in result["metrics"].items():
        was = base["metrics"].get(name)
        if was is None or was["value"] == 0:
            continue
        change = now["value"] / was["value"] - 1.0
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = ("REGRESSION" if worse > bounds[name]["bound"]
                       else "within bound")
        print("  %-32s %+8.2f%%  %s" % (name, 100 * change, verdict),
              file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--out-dir", default=".bench_out")
    ap.add_argument("--record-baseline", metavar="PATH")
    ap.add_argument("--compare", metavar="PATH")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("stackbench: build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", args.out_dir]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    rc = subprocess.run(cmd).returncode
    if rc != 0:
        sys.exit(rc)

    result_path = os.path.join(
        args.out_dir, "%s-seed%d-trace%s.json" % (args.workload, args.seed,
                                                  args.trace))
    if args.record_baseline or args.compare:
        with open(result_path) as f:
            result = json.load(f)
        if args.record_baseline:
            record_baseline(result, args.record_baseline)
        if args.compare:
            compare(result, args.compare)


if __name__ == "__main__":
    main()
