#!/usr/bin/env python3
"""Repo benchmark: seeded end-to-end runs of the gnbody pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload asm-bsp-20x --seed 1 --seconds 35 --trace 0

Builds perfbench/gnb_e2e from source into .bench_build/perfbench (the first
run compiles; later runs reuse it), runs one session of the workload for
--seconds, checks the outputs against the generator's ground truth, and
prints every metric by name and unit. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.

Workload definitions, output-check floors, the held-out seed and the
layer predictions live in perfbench/workloads.json; metric names and units
in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gnb_e2e")
RUN_BUDGET_S = 150  # a run must end within 180 s once built
MAX_SESSIONS = 3  # gnb_e2e restarts after an abort, while measuring time remains

# Counts and quality figures that must repeat exactly across iterations.
DETERMINISTIC = [
    "kmer.tasks", "engine.tasks_done", "engine.accepted", "engine.rounds",
    "engine.messages", "kernel.cells", "wire.raw_bytes", "graph.edges",
    "graph.reduce_rounds", "graph.n50", "correct.reads_changed",
    "overlap_recall", "overlap_precision", "corrected_identity",
]
DIGESTS = ["digest.records", "digest.contigs", "digest.corrected"]


def traced_only(name):
    """Metrics that only the traced iterations measure."""
    return name.startswith(("self.", "trace.")) or name == "rt.coll_self_s"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure and build gnb_e2e; build output goes to a log file."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the root of a full checkout")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a", encoding="utf-8") as log:
        if not os.path.isfile(cache):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
                fail(f"cmake configure failed, see {log_path}", 3)
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", BUILD_DIR, "--target", "gnb_e2e", "-j", jobs]
        if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
            fail(f"build failed, see {log_path}", 3)


def no_core_files():
    """Keep an aborting engine from leaving a core file in the checkout."""
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def run_session(spec, args, seconds, budget_s):
    """Run gnb_e2e once; returns its JSON records and its exit status."""
    inputs = os.path.join(BUILD_DIR, "inputs")
    os.makedirs(inputs, exist_ok=True)
    fasta = os.path.join(inputs, f"{args.workload}-{args.seed}-{os.getpid()}.fa")
    cmd = [BINARY, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), "--fasta", fasta]
    for key, value in spec["args"].items():
        cmd += ["--" + key, str(value)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=no_core_files)
    try:
        out, _ = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print("perfbench: session overran its time budget and was stopped", file=sys.stderr)
    if os.path.exists(fasta):
        os.remove(fasta)
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            print(f"perfbench: unparsable record: {line[:200]}", file=sys.stderr)
    return records, proc.returncode


def run_sessions(spec, args):
    """Measure for --seconds. A session that aborts (a failed iteration)
    is restarted for the time left, so one failure does not end the run.
    Returns the records, iterations renumbered, and each abort's status."""
    start = time.monotonic()
    records, aborts = [], []
    for _ in range(MAX_SESSIONS):
        left = args.seconds - (time.monotonic() - start)
        budget = RUN_BUDGET_S - (time.monotonic() - start)
        part, status = run_session(spec, args, max(left, 0.0), budget)
        done = sum(r["type"] == "iteration" for r in records)
        for r in part:
            if r["type"] == "iteration":
                r["index"] += done
            records.append(r)
        if status == 0:
            break
        aborts.append(status)
        if time.monotonic() - start >= args.seconds:
            break
    return records, aborts


def median(values):
    return statistics.median(values) if values else 0.0


class Session:
    """Aggregates one gnb_e2e session into metrics and check results."""

    def __init__(self, records, spec):
        self.spec = spec
        self.config = next((r for r in records if r["type"] == "config"), {})
        self.setups = [r for r in records if r["type"] == "setup"]
        self.iters = [r for r in records if r["type"] == "iteration"]
        self.ok = [r for r in self.iters if "error" not in r]
        self.plain = [r for r in self.ok if not r["traced"]]
        self.traced = [r for r in self.ok if r["traced"]]
        self.problems = []  # (iteration index or None, message)
        self.notes = []

    def value(self, name):
        """One metric as the median over the iterations that measure it."""
        if name == "setup_s":
            return median([v for r in self.setups + self.iters
                           for k, v in r.items() if k.startswith("setup_s.")])
        if name == "peak_rss_mb":  # the process high-water mark so far
            return max(r["peak_rss_mb"] for r in self.iters)
        if name == "trace.overhead":
            plain = median([r["wall_s"] for r in self.plain])
            traced = median([r["wall_s"] for r in self.traced])
            return traced / plain - 1 if plain > 0 and self.traced else 0.0
        if name == "trace.dropped_events":
            return max((r["trace.dropped_events"] for r in self.traced), default=0)
        if name == "rt.coll_self_s":
            return median([sum(v for k, v in r.items() if k.startswith("self.coll."))
                           for r in self.traced])
        pool = self.traced if traced_only(name) else self.plain
        values = [r[name] for r in pool if name in r]
        if values:
            return median(values)
        if name.startswith("correct.") and not self.spec["args"]["correct"]:
            return 0.0  # the workload does not run correction
        if traced_only(name) and self.traced:
            return 0.0  # the span never opened in this workload
        if not pool:
            return 0.0
        raise KeyError(f"metric {name} was not measured")

    def check(self, floors):
        failed = set()
        for r in self.iters:
            i = r["index"]
            if "error" in r:
                self.problems.append((i, "threw: " + r["error"]))
                failed.add(i)
                continue
            if r["engine.tasks_done"] != r["kmer.tasks"]:
                self.problems.append((i, f"engine.tasks_done {r['engine.tasks_done']}"
                                         f" != kmer.tasks {r['kmer.tasks']}"))
                failed.add(i)
            for name, floor in floors.items():
                if r.get(name, 0) < floor:
                    self.problems.append((i, f"{name} {r.get(name)} under its floor {floor}"))
                    failed.add(i)
            if r.get("trace.dropped_events", 0) != 0:
                self.problems.append((i, f"trace dropped {r['trace.dropped_events']} events"))
                failed.add(i)
        if self.ok:
            first = self.ok[0]
            for r in self.ok[1:]:
                for name in DIGESTS:
                    if r.get(name) != first.get(name):
                        self.problems.append((r["index"], f"{name} differs from iteration"
                                                          f" {first['index']}"))
                        failed.add(r["index"])
                for name in DETERMINISTIC:
                    if r.get(name) != first.get(name):
                        self.notes.append(f"iteration {r['index']}: {name} = {r.get(name)},"
                                          f" iteration {first['index']} had {first.get(name)}")
        return failed

    def digests(self):
        return {k: self.ok[0][k] for k in DIGESTS if self.ok and k in self.ok[0]}


def check_across_runs(args, session):
    """Runs of one seed on one build must produce the same output digests."""
    digests = session.digests()
    if not digests:
        return True
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD_DIR, "digests", f"{args.workload}-{args.seed}-{build_id}.json")
    if os.path.exists(path):
        earlier = load_json(path)
        if earlier != digests:
            session.problems.append((None, f"digests {digests} differ from an earlier run"
                                           f" of this seed on this build: {earlier}"))
            return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(digests, f)
    return True


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench = load_json("BENCHMARK.json")
    catalog = load_json(os.path.join(HERE, "workloads.json"))
    spec = catalog["workloads"].get(args.workload)
    if spec is None:
        fail(f"unknown workload {args.workload!r} (have {', '.join(catalog['workloads'])})")

    build()
    records, aborts = run_sessions(spec, args)
    session = Session(records, spec)
    if not session.ok:
        fail("the session produced no completed iteration", 4)

    failed = session.check(catalog["floors"].get(args.workload, {}))
    attempted = len(session.iters)
    for n, status in enumerate(aborts):
        session.problems.append((None, f"gnb_e2e exited with status {status} during an"
                                       " iteration; counted as one failed iteration"))
        attempted += 1
        failed.add(f"abort {n}")
    if not check_across_runs(args, session):
        failed.update(r["index"] for r in session.ok)

    end_to_end = bench["end_to_end"]
    per_layer = bench["per_layer"]
    table = []
    for group, metrics in (("end-to-end", end_to_end), ("per-layer", per_layer)):
        for m in metrics:
            if traced_only(m["name"]) and not session.traced:
                continue
            table.append((group, m["name"], session.value(m["name"]), m["unit"]))

    failed_frac = len(failed) / attempted
    print(f"== perfbench {args.workload} seed {args.seed} ({args.seconds:g} s, trace"
          f" {args.trace}) ==")
    cfg = session.config
    print("host: nproc {} | cpu {} | avx2 {} | build {} | aligner {} -> {} | wire codec {}"
          " | {} engine, {} ranks x {} compute threads".format(
              cfg.get("nproc"), cfg.get("cpu_model"), cfg.get("avx2"), cfg.get("build_type"),
              cfg.get("batch_aligner"), session.ok[0].get("kernel.backend"),
              cfg.get("wire_codec"), cfg.get("engine"), cfg.get("ranks"), cfg.get("threads")))
    inputs = session.setups[0]
    print(f"input: {inputs['reads']} reads, {inputs['bases']} bases;"
          f" iterations: {len(session.plain)} untraced, {len(session.traced)} traced,"
          f" {attempted - len(session.ok)} lost")
    width = max(len(name) for _, name, _, _ in table)
    for group, name, value, unit in table:
        print(f"  {group:10} {name:{width}}  {fmt(value):>14} {unit}")
    print(f"  {'check':10} {'failed_frac':{width}}  {fmt(failed_frac):>14} ratio"
          f" ({len(failed)} of {attempted})")
    for prefix, title in (("self.", "traced self time by span, summed over tracks"),
                          ("attr.", "traced self time by category, summed over tracks"),
                          ("critical.", "critical path by dominant span")):
        keys = sorted({k for r in session.traced for k in r if k.startswith(prefix)})
        if keys:
            print(f"{title} (median s): " + ", ".join(
                f"{k[len(prefix):]} {median([r.get(k, 0.0) for r in session.traced]):.4g}"
                for k in keys))
    first = session.ok[0]
    print(f"truth: {first['truth.pairs']} true pairs; {first['truth.accepted_pairs']} accepted"
          f" pairs, {first['truth.true_accepted']} of them true pairs and"
          f" {first['truth.overlapping_accepted']} truly overlapping"
          f" (strict precision {first['overlap_precision_strict']:.6g});"
          f" input identity {first['input_identity']:.6g}")
    print("digests: " + ", ".join(f"{k[7:]} {v}" for k, v in session.digests().items()))
    for where, message in session.problems:
        print(f"FAILED{'' if where is None else f' iteration {where}'}: {message}")
    for note in session.notes:
        print(f"nondeterministic count: {note}")

    wanted = end_to_end if args.trace == 0 else per_layer
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": session.value(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
