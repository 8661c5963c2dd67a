#!/usr/bin/env python3
"""The EFES benchmark: one closed-loop client drives the built `efes` CLI.

Run from the root of a source checkout:

    python3 efesbench/run.py --workload paper_scale --seed 1 --seconds 25 --trace 0

It builds `efes` and `efesbench_tool` from source into .bench_build/,
writes the seeded inputs of one workload into .bench_work/, prepares the
reference outputs, then runs one operation at a time (`efes estimate` or
`efes profile`, --threads=4) for --seconds and checks every output. The
last stdout line is one JSON object: `correct`, `attempted`, `failed` and
`metrics` -- the end-to-end metrics with --trace 0, the per-layer metrics
of the traced run (efesbench_tool trace-*) with --trace 1. Workloads,
metrics and the layer table are described in efesbench/README.md.

Other flags: --out FILE appends the run, tagged with its provenance, as
one JSON line (compare two such files with efesbench/compare.py);
--corrupt-reference damages every reference and ground truth as set-up
makes it, so every check, set-up checks included, must fail.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "efesbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
EFES = os.path.join(BUILD_DIR, "efes", "tools", "efes")
TOOL = os.path.join(BUILD_DIR, "efesbench_tool")

THREADS = 4          # --threads of every operation: nproc where bounds were set
# setup_s is the median of several set-ups per run: at least three, and
# more (up to fifteen) until they have taken two seconds, so that a cheap
# set-up is not measured by a handful of short, noisy samples.
SETUP_REPEATS = (3, 15)
SETUP_MIN_SECONDS = 2.0
# End-to-end timings are scaled to a fixed machine speed: multiplied by
# CALIBRATION_MS / (the run's median time of `efesbench_tool calibrate`, a
# kernel that uses no EFES code). The kernel runs before each set-up and
# between operations every CALIBRATION_INTERVAL_S. On a shared VM whose
# speed drifts by 20-30% over minutes this halves the run-to-run spread.
CALIBRATION_MS = 100.0
CALIBRATION_INTERVAL_S = 2.0
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build

# fuzz_corpus_warm runs the checked-in corpus (50 seeds) under this seed
# and FRESH_SCENARIOS fresh fuzz seeds drawn from any other.
CORPUS_SEED = 1
CORPUS_FILE = os.path.join(ROOT, "data", "fuzz_corpus.txt")
CORPUS_RECALL = 1.0  # the corpus's recorded recall, met by every seed
# Fresh seeds are held to the product's documented floor instead: the
# aggregate injected-cluster recall of tests/dedup_fuzz_test.cc. About one
# fresh fuzz seed in 600 has recall 0 (efesbench/README.md).
AGGREGATE_RECALL_FLOOR = 0.8

# The throughput of fuzz_corpus_warm follows the mean rows per scenario of
# the drawn seeds. With 50 fresh seeds per run it spread 0.11-0.23
# (quartile distance over median) over ten seeds; 200 halve that.
FRESH_SCENARIOS = 200
REFERENCE_CHUNK_ROWS = 40000  # differs from the default 65536 on purpose

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rows_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]

# Per-layer metrics of the traced run. Time and count metrics are per
# operation; ratios are recomputed from the summed parts.
PER_LAYER = [
    ("trace.wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("scenario.load_ms", "ms"),
    ("scenario.load_mb_per_s", "MB/s"),
    ("core.validate_ms", "ms"),
    ("mapping.assess_ms", "ms"),
    ("mapping.plan_ms", "ms"),
    ("structure.assess_ms", "ms"),
    ("structure.plan_ms", "ms"),
    ("structure.search_ms", "ms"),
    ("structure.conflicts", "count"),
    ("csg.build_ms", "ms"),
    ("csg.elements", "count"),
    ("csg.links", "count"),
    ("csg.elements_per_s", "1/s"),
    ("values.assess_ms", "ms"),
    ("values.plan_ms", "ms"),
    ("dedup.assess_ms", "ms"),
    ("dedup.plan_ms", "ms"),
    ("profiling.columns_ms", "ms"),
    ("profiling.cells", "count"),
    ("profiling.cells_per_s", "1/s"),
    ("csv.read_ms", "ms"),
    ("profiling.type_infer_ms", "ms"),
    ("profiling.absorb_ms", "ms"),
    ("profiling.finalize_ms", "ms"),
    ("profiling.sketch_bytes", "bytes"),
    ("cache.load_ms", "ms"),
    ("cache.save_ms", "ms"),
    ("cache.snapshot_bytes", "bytes"),
    ("cache.hit_rate", "ratio"),
    ("cache.stores", "count"),
    ("core.price_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.tasks", "count"),
    ("parallel.busy_ms", "ms"),
    ("parallel.idle_ms", "ms"),
    ("parallel.utilization", "ratio"),
    ("parallel.batches", "count"),
    ("parallel.worker_items", "count"),
    ("file_io.retries", "count"),
    ("engine.module.failures", "count"),
]
# name -> (numerator, denominator, scale): recomputed after summing.
RATIOS = {
    "scenario.load_mb_per_s": ("scenario.bytes", "scenario.load_ms", 1e-3),
    "csg.elements_per_s": ("csg.elements", "csg.build_ms", 1e3),
    "profiling.cells_per_s": ("profiling.cells", "profiling.columns_ms", 1e3),
    "parallel.utilization": ("parallel.busy_ms", "parallel.active_ms", 1.0),
    "cache.hit_rate": ("cache.hits", "cache.lookups", 1.0),
}


class BenchError(Exception):
    """The benchmark cannot run (missing sources, failed build)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build

def cmake_cache():
    values = {}
    path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    return values


def build():
    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "efes"))):
        raise BenchError("no EFES sources under %s: run from the root of a "
                         "checkout" % ROOT)
    cache = cmake_cache()
    if cache.get("CMAKE_HOME_DIRECTORY", HERE) != HERE:
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
        cache = {}
    if cache.get("CMAKE_BUILD_TYPE") != BUILD_TYPE:
        command = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                   "-DEFES_ASAN=OFF", "-DEFES_TSAN=OFF", "-DEFES_UBSAN=OFF",
                   "-DEFES_WERROR=OFF"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", "efes_cli",
               "efesbench_tool", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def provenance(args):
    """Where a result came from; refuses Debug and sanitizer builds."""
    info = json.loads(subprocess.run([TOOL, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    cache = cmake_cache()
    sanitizers = [name for name in ("EFES_ASAN", "EFES_TSAN", "EFES_UBSAN")
                  if cache.get(name, "OFF").upper() in ("ON", "1", "TRUE")]
    if info["sanitizer"] != "none":
        sanitizers.append(info["sanitizer"])
    if info["build_type"] != BUILD_TYPE or not info["optimized"] \
            or sanitizers:
        raise BenchError("refusing to measure a %s build (sanitizers: %s)"
                         % (info["build_type"], sanitizers or "none"))
    rev = "none"  # the tree need not be a git checkout
    try:
        top, head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            rev = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return {
        "git_rev": rev,
        "source_digest": source_digest(),
        "build_type": info["build_type"],
        "compiler": info["compiler"],
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def source_digest():
    """Hash of the sources the benchmark builds; identifies a tree that is
    not a git checkout."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", os.path.relpath(HERE, ROOT)):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(directory, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


# ------------------------------------------------------------ operations

class Op:
    """One finished operation: exit code, wall time, rusage, output. The
    operation runs under `efesbench_tool spawn` (see there for why)."""

    def __init__(self, argv, out_path):
        stats = tool_json_lines(["spawn", out_path, out_path + ".err"] +
                                argv)[0]
        self.code = int(stats["code"])
        self.ms = stats["ms"]
        self.cpu_ms = stats["cpu_ms"]
        self.rss_mib = stats["rss_mib"]
        with open(out_path, "rb") as f:
            self.output = f.read()


def tool_json_lines(argv):
    result = subprocess.run([TOOL] + argv, capture_output=True, text=True)
    if result.returncode != 0:
        raise BenchError("efesbench_tool %s failed: %s"
                         % (argv[0], result.stderr.strip()))
    return [json.loads(line) for line in result.stdout.splitlines() if line]


def structure_counts(text):
    """Violation counts of the `=== structure ===` section, in order."""
    counts = []
    in_section = False
    for line in text.decode(errors="replace").splitlines():
        if line.startswith("=== "):
            in_section = line == "=== structure ==="
        elif in_section and "|" in line:
            cell = line.rsplit("|", 1)[1].strip()
            if cell.isdigit():
                counts.append(int(cell))
    return counts


def key_column_counts(text):
    """(rows, distinct, values) of the first column of a profile report;
    None when the report does not parse."""
    try:
        lines = text.decode(errors="replace").splitlines()
        rows = int(lines[0].split(": ", 1)[1].split(" rows", 1)[0])
        line = next(l for l in lines if "constancy:" in l)
        inner = line.split("(", 1)[1]
        distinct = int(inner.split(" distinct", 1)[0])
        values = int(inner.split("/ ", 1)[1].split(" values", 1)[0])
        return rows, distinct, values
    except (IndexError, StopIteration, ValueError):
        return None


# ------------------------------------------------------------- workloads

class Workload:
    """Set-up fills `ops` with (argv, rows, trace argv) per operation and
    `references` with the expected output of each, and returns its own
    checks. The trace argv runs the same input through efesbench_tool.
    With `corrupt`, set-up damages every reference and ground truth it
    makes, so that every check fails."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def damage(self, reference):
        return reference + b"#" if self.corrupt else reference

    def check(self, i, code, output):
        """Judges the output of operation `i`."""
        return code == 0 and output == self.references[i]


class PaperScale(Workload):
    """The Figure 2 scenario at 32 000 albums, estimated cold. Each
    operation is a fresh process over inputs that set-up just wrote, so
    nothing needs warming up. The generator's violation counts are the
    ground truth, and a `--threads=1` CLI run made in set-up is the
    reference of every operation and traced report."""

    def setup(self, seed, work):
        scenario = os.path.join(work, "paper")
        info = tool_json_lines(["gen-paper", scenario,
                                "--seed=%d" % seed])[0]
        self.expected = [int(info["multi_artist_albums"]) + self.corrupt,
                         int(info["orphan_artists"])]
        reference = Op([EFES, "estimate", scenario, "--threads=1"],
                       os.path.join(work, "reference.txt"))
        self.references = [self.damage(reference.output)]
        self.ops = [([EFES, "estimate", scenario, "--threads=%d" % THREADS],
                     int(info["source_rows"]),
                     ["trace-estimate", scenario, "--threads=%d" % THREADS])]
        return [self.check(0, reference.code, reference.output)]

    def check(self, i, code, output):
        return (super().check(i, code, output)
                and structure_counts(output) == self.expected)


class FuzzCorpusWarm(Workload):
    """Small fuzz scenarios, each with its own warm --cache-dir."""

    def setup(self, seed, work):
        if seed == CORPUS_SEED:
            with open(CORPUS_FILE) as f:
                seeds = [int(line.split("#", 1)[0]) for line in f
                         if line.split("#", 1)[0].strip()]
        else:
            seeds = random.Random(seed).sample(range(1, 10 ** 9),
                                               FRESH_SCENARIOS)
        scenarios = tool_json_lines(["gen-fuzz", work] +
                                    [str(s) for s in seeds])
        # A damaged expectation asks for a recall above 1.
        if seed == CORPUS_SEED:
            checks = [s["recall"] == CORPUS_RECALL + self.corrupt
                      for s in scenarios]
        else:
            injected = sum(s["injected_clusters"] for s in scenarios)
            found = sum(s["recall"] * s["injected_clusters"]
                        for s in scenarios)
            checks = [found >= (AGGREGATE_RECALL_FLOOR + self.corrupt)
                      * injected]
        self.ops = []
        self.references = []
        for i, s in enumerate(scenarios):
            name = "fz%d" % s["seed"]
            scenario = os.path.join(work, name)
            cache_dir = os.path.join(work, name + ".cache")
            cold = Op([EFES, "estimate", scenario, "--no-cache",
                       "--threads=1"], os.path.join(work, name + ".ref"))
            argv = [EFES, "estimate", scenario, "--cache-dir=" + cache_dir,
                    "--threads=%d" % THREADS]
            self.references.append(self.damage(cold.output))
            self.ops.append((argv, int(s["source_rows"]),
                             ["trace-estimate", scenario,
                              "--cache-dir=" + cache_dir,
                              "--threads=%d" % THREADS]))
            warm = Op(argv, os.path.join(work, name + ".out"))
            checks.append(cold.code == 0 and self.check(i, warm.code,
                                                        warm.output))
        return checks


class ProfileStream(Workload):
    """`efes profile` over one 250k-row, 8-column CSV, exact mode. Like
    paper_scale, it needs no warm-up beyond writing the input."""

    def setup(self, seed, work):
        path = os.path.join(work, "stream.csv")
        info = tool_json_lines(["gen-csv", path, "--seed=%d" % seed])[0]
        self.rows = int(info["rows"])
        reference = Op([EFES, "profile", path, "--threads=1",
                        "--chunk-rows=%d" % REFERENCE_CHUNK_ROWS],
                       os.path.join(work, "reference.txt"))
        self.references = [self.damage(reference.output)]
        self.ops = [([EFES, "profile", path, "--threads=%d" % THREADS],
                     self.rows,
                     ["trace-profile", path, "--threads=%d" % THREADS])]
        return [self.check(0, reference.code, reference.output)]

    def check(self, i, code, output):
        """Byte-identical to the reference, and the key column's ground
        truth: as many distinct values as generated rows."""
        return (super().check(i, code, output)
                and key_column_counts(output) ==
                (self.rows, self.rows, self.rows))


WORKLOADS = {
    "paper_scale": PaperScale,
    "fuzz_corpus_warm": FuzzCorpusWarm,
    "profile_stream": ProfileStream,
}


# ------------------------------------------------------------ measuring

class Calibration:
    """Samples of the calibration kernel taken during one run."""

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self):
        self.samples.append(
            tool_json_lines(["calibrate"])[0]["calibration_ms"])
        self.last = time.perf_counter()

    def sample_if_due(self):
        if time.perf_counter() - self.last >= CALIBRATION_INTERVAL_S:
            self.sample()

    def scale(self):
        """Factor that turns a time of this run into one at the fixed
        machine speed."""
        return CALIBRATION_MS / statistics.median(self.samples)


def prepare(workload, seed, repeats, min_seconds=0.0, calibration=None):
    """Runs set-up, each time from an empty work directory, between
    repeats[0] and repeats[1] times and until `min_seconds` have passed;
    returns the set-up seconds and the failed set-up checks of the last."""
    seconds = []
    while len(seconds) < repeats[0] or (
            len(seconds) < repeats[1] and sum(seconds) < min_seconds):
        if calibration:
            calibration.sample()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        os.makedirs(WORK_DIR)
        start = time.perf_counter()
        checks = workload.setup(seed, WORK_DIR)
        seconds.append(time.perf_counter() - start)
    return seconds, checks.count(False), len(checks)


def measure(workload, seconds, calibration):
    """The timed closed loop: one operation in flight, round-robin over the
    workload's operations, until `seconds` have passed. Returns the
    operations, the failed count and the input rows per second of
    operation time."""
    out_path = os.path.join(WORK_DIR, "op.out")
    ops = []
    failed = 0
    rows = 0
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        calibration.sample_if_due()
        i = len(ops) % len(workload.ops)
        argv, op_rows, _ = workload.ops[i]
        op = Op(argv, out_path)
        op.input = i
        if not workload.check(i, op.code, op.output):
            failed += 1
        op.output = None  # thousands of operations: keep only the numbers
        ops.append(op)
        rows += op_rows
    return ops, failed, rows / (sum(op.ms for op in ops) / 1000.0)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, seed, seconds):
    """Returns attempted, failed, the calibrated metrics and the raw ones."""
    calibration = Calibration()
    setup_seconds, setup_failed, setup_checks = prepare(
        workload, seed, SETUP_REPEATS, SETUP_MIN_SECONDS, calibration)
    ops, failed, throughput = measure(workload, seconds, calibration)
    latencies = [op.ms for op in ops]
    # The tail is taken over the inputs, each input's latency being the
    # median of its operations, so that a stall of the machine during a
    # few operations does not move it.
    by_input = {}
    for op in ops:
        by_input.setdefault(op.input, []).append(op.ms)
    raw = {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": quantile(
            [statistics.median(ms) for ms in by_input.values()], 90),
        "throughput_rows_per_s": throughput,
        "cpu_ms_per_op": statistics.median(op.cpu_ms for op in ops),
        "peak_rss_mib": statistics.median(op.rss_mib for op in ops),
        "setup_s": statistics.median(setup_seconds),
    }
    scale = calibration.scale()
    values = {name: value * scale for name, value in raw.items()}
    values["throughput_rows_per_s"] = throughput / scale
    values["peak_rss_mib"] = raw["peak_rss_mib"]
    raw["calibration_ms"] = CALIBRATION_MS / scale
    log("# %d operations, %d failed; %d set-up checks, %d failed; "
        "latency_p50_ms over %d samples, latency_p90_ms over %d inputs%s"
        % (len(ops), failed, setup_checks, setup_failed, len(ops),
           len(by_input), "" if len(by_input) > 1 else
           " (one input: it equals latency_p50_ms)"))
    return len(ops) + setup_checks, failed + setup_failed, values, raw


def traced(workload, seed, seconds):
    """Traced passes until `seconds` have passed. A pass runs every
    operation of the workload once through efesbench_tool; the pass with
    the median wall time is reported, so its layers add up exactly."""
    _, setup_failed, setup_checks = prepare(workload, seed, (1, 1))
    out_path = os.path.join(WORK_DIR, "trace.out")
    passes = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        totals = {}
        for i, (_, _, trace_argv) in enumerate(workload.ops):
            result = subprocess.run([TOOL] + trace_argv +
                                    ["--out=" + out_path],
                                    capture_output=True, text=True)
            attempted += 1
            output = b""
            if os.path.exists(out_path):
                with open(out_path, "rb") as f:
                    output = f.read()
                os.remove(out_path)
            if not workload.check(i, result.returncode, output):
                failed += 1
            if result.returncode != 0:
                continue
            for name, value in json.loads(
                    result.stdout.splitlines()[-1]).items():
                totals[name] = totals.get(name, 0.0) + value
        passes.append(totals)
    chosen = sorted(passes, key=lambda t: t.get("trace.wall_ms", 0.0))[
        (len(passes) - 1) // 2]
    count = len(workload.ops)
    values = {name: chosen.get(name, 0.0) / count for name, _ in PER_LAYER}
    for name, (top, bottom, scale) in RATIOS.items():
        denominator = chosen.get(bottom, 0.0)
        values[name] = (chosen.get(top, 0.0) / denominator * scale
                        if denominator > 0 else 0.0)
    log("# %d traced passes of %d operations, %d failed; %d set-up checks, "
        "%d failed; reporting the median pass"
        % (len(passes), count, failed, setup_checks, setup_failed))
    return attempted + setup_checks, failed + setup_failed, values, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=CORPUS_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the tagged result here")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="damage the references: every check must fail")
    args = parser.parse_args()

    try:
        build()
        tags = provenance(args)
        print("# provenance " + json.dumps(tags, sort_keys=True), flush=True)
        workload = WORKLOADS[args.workload](args.corrupt_reference)
        run = traced if args.trace else end_to_end
        attempted, failed, values, raw = run(workload, args.seed, args.seconds)
    except BenchError as error:
        log("efesbench: %s" % error)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    # error_rate counts the set-up checks with the operations, as
    # `attempted` and `failed` do.
    error_rate = failed / attempted
    log("# error_rate %.6f (%d of %d attempted failed)"
        % (error_rate, failed, attempted))
    if raw:
        # The result line carries exactly BENCHMARK.json's metrics; the
        # uncalibrated values stand on the stdout line just above it.
        print("# uncalibrated " + json.dumps(raw), flush=True)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"provenance": tags, "error_rate":
                                error_rate, "uncalibrated": raw,
                                **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
