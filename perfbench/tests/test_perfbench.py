#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the driver and the two benches it is compared with into
.bench_build/perfbench-tests, then checks the result contract, the
correctness gate, span coverage, agreement with bench_fig_6_6_to_6_8 and
bench_scale_sweep, and that run.py fails without the simulator's sources.
Takes about two minutes on four cores.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(SCRATCH, "perfbench-tests")
DRIVER = os.path.join(BUILD, "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def setUpModule():
    cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
           "-DPERFBENCH_CROSSCHECK=ON"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=subprocess.DEVNULL)


def drive(*args):
    """Runs the driver; returns (exit code, stdout lines, stderr)."""
    p = subprocess.run([DRIVER, *args], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines(), p.stderr


def tiny(workload, trace=0, *extra):
    return drive("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--tiny", *extra)


def bench_env(**knobs):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ROBUSTORE_")}
    env.update(knobs)
    return env


class ResultContract(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for wl in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    rc, lines, err = tiny(wl["name"], trace)
                    self.assertEqual(rc, 0, err)
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_bad_arguments_exit_2(self):
        self.assertEqual(tiny("no_such_workload")[0], 2)
        self.assertEqual(drive("--workload", "paper_read")[0], 2)


class CorrectnessGate(unittest.TestCase):
    def test_gate_mismatch_fails(self):
        rc, lines, err = tiny("write_read", 0, "--inject", "digest")
        self.assertEqual(rc, 1)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertIn("DIGEST MISMATCH", err)

    def test_unverified_decode_fails(self):
        rc, lines, _ = tiny("data_plane", 0, "--inject", "decode")
        self.assertEqual(rc, 1)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["complete_share"]["value"], 1.0)


class SpanCoverage(unittest.TestCase):
    def test_spans_cover_run_trial_on_paper_read(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            path = os.path.join(tmp, "spans.json")
            rc, _, err = drive("--workload", "paper_read", "--seed", "5",
                               "--seconds", "1", "--trace", "1",
                               "--prefix", "16", "--span-out", path)
            self.assertEqual(rc, 0, err)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
        roots = {}
        covered = 0.0
        for e in events:
            if e["name"] == "core.runTrial":
                roots[(e["tid"], e["args"]["span"])] = e["dur"]
        for e in events:
            if e["name"] in ("client.Cluster", "client.selectDisks",
                             "client.planFile", "client.read") and \
                    (e["tid"], e["args"]["parent"]) in roots:
                covered += e["dur"]
        self.assertGreater(len(roots), 16)
        self.assertGreaterEqual(covered / sum(roots.values()), 0.95)


class AgreesWithExistingBenches(unittest.TestCase):
    def test_paper_read_reproduces_fig_6_6_to_6_8(self):
        trials = 3
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            subprocess.run(
                [os.path.join(BUILD, "bench_fig_6_6_to_6_8")], check=True,
                stdout=subprocess.DEVNULL,
                env=bench_env(ROBUSTORE_TRIALS=str(trials), ROBUSTORE_JSON=tmp))
            with open(os.path.join(tmp, "BENCH_fig_6_6_to_6_8.json")) as f:
                rows = json.load(f)["rows"]
        expected = {r["scheme"]: r for r in rows if r["label"] == "64"}
        rc, lines, err = drive("--workload", "paper_read", "--seed", "20070613",
                               "--seconds", "0", "--trace", "0",
                               "--prefix", str(4 * trials), "--crosscheck")
        self.assertEqual(rc, 0, err)
        got = self.crosscheck(lines)
        self.assertEqual(set(got), set(expected))
        for scheme, row in expected.items():
            for key in ("bandwidth_mbps", "latency_stddev_s", "io_overhead"):
                self.assertEqual(got[scheme][key], row[key], (scheme, key))

    def test_campaign_reproduces_scale_sweep(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            subprocess.run(
                [os.path.join(BUILD, "bench_scale_sweep"), "--tier", "mid",
                 "--seed", "42", "--no-host-metrics"],
                check=True, stdout=subprocess.DEVNULL,
                env=bench_env(ROBUSTORE_JSON=tmp))
            with open(os.path.join(tmp, "BENCH_scale_sweep.json")) as f:
                rows = json.load(f)["rows"]
        expected = {r["scheme"]: r for r in rows if r["label"] == "128d/1000c"}
        rc, lines, err = drive("--workload", "campaign", "--seed", "42",
                               "--seconds", "0", "--trace", "0",
                               "--prefix", "4", "--crosscheck")
        self.assertEqual(rc, 0, err)
        got = self.crosscheck(lines)
        self.assertEqual(set(got), set(expected))
        for scheme, row in expected.items():
            self.assertEqual(got[scheme]["events_fired"], row["events_fired"])
            self.assertEqual(got[scheme]["peak_live"], row["peak_live_events"])
            self.assertEqual(got[scheme]["accesses_completed"],
                             row["accesses_completed"])

    @staticmethod
    def crosscheck(lines):
        out = {}
        for line in lines:
            if line.startswith("crosscheck "):
                _, scheme, *fields = line.split()
                out[scheme] = {k: json.loads(v) for k, v in
                               (f.split("=") for f in fields)}
        return out


class RunPy(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper_read",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
