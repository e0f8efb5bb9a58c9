#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

    python3 perfbench/run.py --workload pim-fig1 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a CMake package over the library sources in ../src) in
Release under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs one workload. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. A traced run also writes a Chrome trace-event JSON file (it
loads in Perfetto) next to the build, under traces/.

Workloads: pim-fig1, map-reads, stream-hybrid, long-tiled (see
BENCHMARK.json). Build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pim-fig1", "map-reads", "stream-hybrid", "long-tiled")
RUN_TIMEOUT_S = 170

# Metrics that repeat bit-for-bit for a fixed seed, per workload: counts and
# modeled (simulated) quantities, taken over the first pass of each
# workload's fixed cycle. Only these may be cited as counts; everything
# else is a measurement. test_perfbench.py checks that they repeat.
EXACT = {
    "pim-fig1": [
        "upmem.sim_cycles", "upmem.sim_instructions",
        "upmem.bytes_to_device", "upmem.bytes_from_device",
        "model.scatter_s", "model.kernel_s", "model.gather_s",
        "model.total_s", "model.pairs_per_s",
        "tiling.tiled_pairs", "tiling.segments_per_pair",
        "seq.bases_copied", "failed_frac",
    ],
    "long-tiled": [
        "upmem.sim_cycles", "upmem.sim_instructions",
        "upmem.bytes_to_device", "upmem.bytes_from_device",
        "model.scatter_s", "model.kernel_s", "model.gather_s",
        "model.total_s", "model.pairs_per_s",
        "tiling.tiled_pairs", "tiling.segments_per_pair",
        "seq.bases_copied", "failed_frac",
    ],
    "map-reads": [
        "map.candidates_per_read", "map.filter_rejection",
        "map.qualified_frac", "map.recall", "wfa.peak_wavefront_bytes",
        "seq.bases_copied", "failed_frac",
    ],
    "stream-hybrid": ["seq.bases_copied", "failed_frac"],
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the library sources are missing (no %s next to perfbench/)"
                 % needed)
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-sized inputs (the self-test)")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", out_dir]
    if args.tiny:
        command.append("--tiny")
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
