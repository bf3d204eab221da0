#!/usr/bin/env python3
"""Self-tests of the stack benchmark.

    python3 stackbench/tests/test_stackbench.py

Run from the repository root.  Builds the benchmark binary the way run.py does,
then makes a tiny-size (--smoke) run of every workload, untraced and
traced, and checks the result contract, the golden checks, determinism
and the ladder's arithmetic.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (stackbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload the binary runs, including serve_small, which
# BENCHMARK.json leaves out (see README.md).
WORKLOADS = run.WORKLOADS
OUT = os.path.join(".bench_out", "selftest")


class Stackbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        cls.binary = run.build(build_dir)
        cls.cache = {}

    def bench(self, workload, trace, seed=7, expect_rc=0):
        key = (workload, trace, seed)
        if key in self.cache:
            return self.cache[key]
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--smoke",
             "--out-dir", OUT],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, expect_rc, proc.stderr)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed,
                                                            trace))
        with open(path) as f:
            full = json.load(f)
        self.cache[key] = (last, full)
        return last, full

    def check_contract(self, last, names):
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        self.assertEqual(set(last["metrics"]), set(names))
        for metric in last["metrics"].values():
            self.assertEqual(set(metric), {"value", "unit"})

    def test_benchmark_json_names_runnable_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertTrue(set(names) <= set(WORKLOADS), names)

    def test_untraced_smoke_every_workload(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                last, full = self.bench(workload, 0)
                self.check_contract(last, units)
                for name, metric in last["metrics"].items():
                    self.assertEqual(metric["unit"], units[name])
                    self.assertGreater(metric["value"], 0, name)
                self.assertEqual(full["host_shape"]["build_type"], "release")
                self.assertRegex(full["details"]["outputs_fnv64"],
                                 "^[0-9a-f]{16}$")

    def test_traced_smoke_every_workload(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                last, full = self.bench(workload, 1)
                self.check_contract(last, units)
                with open(full["details"]["trace_file"]) as f:
                    events = json.load(f)["traceEvents"]
                self.assertEqual(len(events), full["details"]["spans"])
                names = {e["name"].split(".")[0] for e in events}
                self.assertTrue({"window", "ladder", "L0", "L1", "L3",
                                 "fleet"} <= names, names)

    def test_ladder_self_times_are_nonnegative_and_sum_to_idle_l3(self):
        for workload in WORKLOADS:
            last, full = self.bench(workload, 1)
            total = 0.0
            for row in full["details"]["ladder"]:
                total += row["weight"] * row["l3_us"]
                with self.subTest(workload=workload, shape=row["shape"]):
                    parts = (row["sim_self_us"], row["rt_self_us"],
                             row["net_self_us"])
                    for part in parts:
                        self.assertGreaterEqual(part, 0.0, row)
                    self.assertAlmostEqual(sum(parts), row["l3_us"],
                                           delta=1e-6 * row["l3_us"])
            m = last["metrics"]
            layers = (m["sim.self_us"]["value"] + m["rt.self_us"]["value"] +
                      m["net.self_us"]["value"])
            self.assertAlmostEqual(layers, full["details"]["idle_l3_us"],
                                   delta=1e-6 * layers)
            self.assertAlmostEqual(total, full["details"]["idle_l3_us"],
                                   delta=1e-6 * total)

    def test_same_seed_same_outputs_and_cycles(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = self.bench(workload, 0, seed=7)
                b = self.bench(workload, 0, seed=8)
                # A rerun of seed 7 must reproduce the digest exactly.
                self.cache.pop((workload, 0, 7))
                again = self.bench(workload, 0, seed=7)
                self.assertEqual(a[1]["details"]["outputs_fnv64"],
                                 again[1]["details"]["outputs_fnv64"])
                self.assertEqual(a[0]["metrics"]["sim_cycles"],
                                 again[0]["metrics"]["sim_cycles"])
                self.assertNotEqual(a[1]["details"]["outputs_fnv64"],
                                    b[1]["details"]["outputs_fnv64"])

    def test_host_shape_guard(self):
        _, full = self.bench("serve_small", 0)
        path = os.path.join(OUT, "baseline.json")
        run.record_baseline(full, path)
        run.compare(full, path)  # same shape: compares
        for field, value in (("build_type", "debug"),
                             ("sanitizers", "address")):
            with self.subTest(field=field):
                bad = json.loads(json.dumps(full))
                bad["host_shape"][field] = value
                with self.assertRaises(SystemExit):
                    run.record_baseline(bad, path + ".refused")
                self.assertFalse(os.path.exists(path + ".refused"))
                with self.assertRaises(SystemExit):
                    run.compare(bad, path)
        other = json.loads(json.dumps(full))
        other["host_shape"]["cores"] += 1
        with self.assertRaises(SystemExit):
            run.compare(other, path)

    def test_bad_arguments_exit_nonzero_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1"],
                     ["--seed", "1"],
                     ["--workload", "ring_long", "--trace", "2"]):
            with self.subTest(args=args):
                proc = subprocess.run([self.binary] + args,
                                      capture_output=True, text=True)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
