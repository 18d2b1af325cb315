#!/usr/bin/env python3
"""End-to-end benchmark of datamaran_cli and datamaran_crawl.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the program and the benchmark's own tools into .bench_build/,
generates the workload's inputs from the seed (cached per seed), runs the
shipped binaries on them, checks every output against the generator's
ground truth, and prints one JSON object as the last line of stdout.

--trace 0 times whole program invocations from outside the process: one
warm-up round, then timed rounds for about S seconds (a round starts only
if a typical round ends in time; at least two), each metric the median over
the timed rounds. --trace 1 runs one checked round and then pbtrace, which
times the public entry point of every layer on the same inputs and whose
in-process record counts must equal the row counts of the program's output
tables.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

MB = 1024.0 * 1024.0
THREADS = "4"
MIN_ROUNDS = 2
WORKLOADS = ("batch_cold", "warm_extract", "lake_crawl", "follow_stream")
# Record lines a --follow run may leave as noise once a new format appears:
# one drift window (256 decided lines) to trigger re-discovery, plus one
# cooldown window (min_epoch_lines, 256) for a retry after a fruitless
# attempt, as core/stream.h documents.
DRIFT_LATE_BOUND = 2 * 256
# The batch layers of the traced run read at most this much of the stream.
TRACE_BATCH_CAP = 64 << 20

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg, code=1):
    log(msg)
    sys.exit(code)


# ------------------------------------------------------------------ build --

def run_quiet(cmd, logfile):
    with open(logfile, "ab") as out:
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(logfile, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        die("command failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    """Builds the program and the benchmark tools (a no-op when current)."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    prog = os.path.join(BUILD, "program")
    tools = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(prog, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", prog,
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DDATAMARAN_BUILD_FUZZERS=OFF"], logfile)
    run_quiet(["cmake", "--build", prog, "-j4", "--target", "datamaran",
               "datamaran_cli", "datamaran_crawl"], logfile)
    if not os.path.exists(os.path.join(tools, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", tools,
                   "-DCMAKE_BUILD_TYPE=Release", "-DDM_BUILD_DIR=" + prog,
                   "-DDM_SOURCE_DIR=" + ROOT], logfile)
    run_quiet(["cmake", "--build", tools, "-j4"], logfile)
    return {
        "cli": os.path.join(prog, "datamaran_cli"),
        "crawl": os.path.join(prog, "datamaran_crawl"),
        "pbtool": os.path.join(tools, "pbtool"),
        "pbtrace": os.path.join(tools, "pbtrace"),
    }


# ----------------------------------------------------------------- inputs --

def inputs_for(bins, workload, seed):
    """Returns the generated input directory, generating it if absent.

    Only the newest seed of each workload is kept, so the cache stays at
    one input set per workload.
    """
    cache = os.path.join(BUILD, "inputs")
    os.makedirs(cache, exist_ok=True)
    want = "%s-%d" % (workload, seed)
    path = os.path.join(cache, want)
    if os.path.exists(os.path.join(path, ".done")):
        return path
    for name in os.listdir(cache):
        if name.startswith(workload + "-") and name != want:
            shutil.rmtree(os.path.join(cache, name), ignore_errors=True)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(path, ignore_errors=True)
    rc = subprocess.call([bins["pbtool"], "gen", workload, str(seed), tmp])
    if rc != 0:
        die("input generation failed")
    open(os.path.join(tmp, ".done"), "w").close()
    os.rename(tmp, path)
    return path


def lake_files(lake):
    out = []
    for d, _, files in os.walk(lake):
        for f in files:
            out.append(os.path.relpath(os.path.join(d, f), lake))
    return sorted(out)


# ------------------------------------------------------------ invocations --

def first_byte_seen(path):
    """True once any regular file under `path` has a byte in it."""
    try:
        with os.scandir(path) as it:
            for e in it:
                if e.is_dir(follow_symlinks=False):
                    if first_byte_seen(e.path):
                        return True
                elif e.stat(follow_symlinks=False).st_size > 0:
                    return True
    except OSError:
        pass
    return False


def invoke(cmd, out_dir, logdir, stdin_file=None):
    """Runs one program invocation and measures it from outside.

    Returns wall seconds, seconds until the first output byte appeared under
    out_dir, peak RSS (MB), user+system CPU seconds and the exit code.
    """
    os.makedirs(logdir, exist_ok=True)
    stdout = open(os.path.join(logdir, "stdout.txt"), "wb")
    stderr = open(os.path.join(logdir, "stderr.txt"), "wb")
    first = [None]
    done = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=stdout, stderr=stderr,
        stdin=subprocess.PIPE if stdin_file else subprocess.DEVNULL)

    def poll():
        while not done.is_set():
            if first_byte_seen(out_dir):
                first[0] = time.perf_counter()
                return
            time.sleep(0.002)

    def feed():
        try:
            with open(stdin_file, "rb") as f:
                shutil.copyfileobj(f, proc.stdin, 1 << 20)
        except BrokenPipeError:
            pass
        finally:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass

    threads = [threading.Thread(target=poll)]
    if stdin_file:
        threads.append(threading.Thread(target=feed))
    for t in threads:
        t.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        t1 = time.perf_counter()
        done.set()
        for t in threads:
            t.join()
        stdout.close()
        stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = (first[0] if first[0] is not None else t1) - t0
    return {
        "wall_s": t1 - t0,
        "setup_s": setup,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rc": proc.returncode,
    }


def tree_digest(*paths):
    """Digest of every file under the given paths (path names included)."""
    h = hashlib.blake2b(digest_size=16)
    for top in paths:
        if not os.path.exists(top):
            h.update(b"<absent>")
            continue
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, top).encode() + b"\0")
                with open(p, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
    return h.hexdigest()


def write_templates(path, templates):
    with open(path, "w") as f:
        f.write("".join(t + "\n" for t in templates))


def run_checks(bins, jobs, jobfile):
    """Runs pbtool check over (input, labels, templates, outdir, bound) jobs.

    Returns {input: (ok, detail)} where detail holds the row and noise
    counts on success and the reason on failure.
    """
    with open(jobfile, "w") as f:
        for j in jobs:
            f.write("\t".join(str(x) for x in j) + "\n")
    out = subprocess.run([bins["pbtool"], "check", jobfile],
                         stdout=subprocess.PIPE, check=True).stdout.decode()
    verdicts = {}
    for line in out.splitlines():
        if line.startswith("OK "):
            _, path, rows, noise, late = line.split(" ")
            rows = rows[len("rows="):]
            verdicts[path] = (True, {
                "rows": [int(x) for x in rows.split(",")] if rows else [],
                "noise": int(noise[len("noise="):]),
                "late": int(late[len("late="):]),
            })
        elif line.startswith("FAIL "):
            path, reason = line[len("FAIL "):].split(": ", 1)
            verdicts[path] = (False, reason)
    if len(verdicts) != len(jobs):
        die("checker returned %d verdicts for %d jobs" % (len(verdicts),
                                                          len(jobs)))
    return verdicts


# -------------------------------------------------------------- workloads --

class Workload:
    """One workload: set-up, one round (a program invocation), its checks."""

    def __init__(self, name, bins, inputs, rundir):
        self.name, self.bins, self.inputs, self.rundir = (
            name, bins, inputs, rundir)
        self.input_bytes = 0
        self.reference = None  # (digest, verdicts) of the first round

    def label(self, rel):
        return os.path.join(self.inputs, "labels", rel + ".lab")

    def setup(self):
        pass

    def command(self, out, meta):
        raise NotImplementedError

    def jobs(self, out, meta):
        raise NotImplementedError

    def round(self, index):
        """Runs and checks one round; returns (measure, verdicts, files)."""
        rdir = os.path.join(self.rundir, "round%d" % index)
        shutil.rmtree(rdir, ignore_errors=True)
        os.makedirs(rdir)
        out = os.path.join(rdir, "out")
        meta = os.path.join(rdir, "meta")
        os.makedirs(meta)
        cmd, stdin_file = self.command(out, meta)
        m = invoke(cmd, out, rdir, stdin_file)
        verdicts = self.verify(m, out, meta, rdir)
        return m, verdicts, rdir

    def verify(self, m, out, meta, rdir):
        """Checks the round; reuses the first round's verdicts when the
        output bytes are identical to it."""
        if m["rc"] != 0:
            return {op: (False, "exit code %d" % m["rc"])
                    for op in self.operations()}
        problem = self.assertions(meta)
        if problem:
            return {op: (False, problem) for op in self.operations()}
        digest = tree_digest(out, os.path.join(meta, "templates"))
        if self.reference and self.reference[0] == digest:
            return self.reference[1]
        jobs = self.jobs(out, meta)
        verdicts = run_checks(self.bins, jobs, os.path.join(rdir, "jobs.tsv"))
        if self.reference is None:
            self.reference = (digest, verdicts)
        return verdicts

    def operations(self):
        return [self.main_input]

    def assertions(self, meta):
        return None


class BatchCold(Workload):
    def setup(self):
        self.main_input = os.path.join(self.inputs, "batch.log")
        self.input_bytes = os.path.getsize(self.main_input)

    def extra_flags(self):
        return []

    def command(self, out, meta):
        return ([self.bins["cli"], self.main_input, "--out=" + out,
                 "--threads=" + THREADS,
                 "--summary-json=" + os.path.join(meta, "summary.json")]
                + self.extra_flags(), None)

    def summary(self, meta):
        with open(os.path.join(meta, "summary.json")) as f:
            return json.load(f)

    def jobs(self, out, meta):
        tpl = os.path.join(meta, "templates", "t.txt")
        rel = os.path.basename(self.main_input)
        return [(self.main_input, self.label(rel), tpl, out, -1)]

    def assertions(self, meta):
        s = self.summary(meta)
        os.makedirs(os.path.join(meta, "templates"), exist_ok=True)
        write_templates(os.path.join(meta, "templates", "t.txt"),
                        s["templates"])
        return None

    def trace_inputs(self, rdir):
        return [(self.main_input,
                 os.path.join(rdir, "meta", "templates", "t.txt"))]

    def trace_flags(self):
        return []


class WarmExtract(BatchCold):
    def setup(self):
        self.main_input = os.path.join(self.inputs, "warm.log")
        self.input_bytes = os.path.getsize(self.main_input)
        # The catalog comes from a cold run on a small sibling of the same
        # formats; building it is benchmark set-up, outside every timing.
        self.catalog = os.path.join(self.rundir, "catalog.txt")
        rc = subprocess.call(
            [self.bins["cli"], os.path.join(self.inputs, "sibling.log"),
             "--catalog-out=" + self.catalog, "--threads=" + THREADS],
            stdout=subprocess.DEVNULL)
        if rc != 0 or not os.path.exists(self.catalog):
            die("could not build the warm_extract catalog")

    def extra_flags(self):
        return ["--catalog-in=" + self.catalog]

    def assertions(self, meta):
        BatchCold.assertions(self, meta)
        s = self.summary(meta)
        if not s.get("catalog", {}).get("hit"):
            return "catalog miss: discovery was not bypassed"
        return None

    def trace_flags(self):
        return ["--catalog=" + self.catalog]


class FollowStream(BatchCold):
    def setup(self):
        self.main_input = os.path.join(self.inputs, "stream.log")
        self.input_bytes = os.path.getsize(self.main_input)

    def command(self, out, meta):
        return ([self.bins["cli"], "--follow=-", "--out=" + out,
                 "--threads=" + THREADS,
                 "--summary-json=" + os.path.join(meta, "summary.json")],
                self.main_input)

    def jobs(self, out, meta):
        tpl = os.path.join(meta, "templates", "t.txt")
        return [(self.main_input, self.label("stream.log"), tpl, out,
                 DRIFT_LATE_BOUND)]

    def assertions(self, meta):
        BatchCold.assertions(self, meta)
        s = self.summary(meta)
        if s.get("stream", {}).get("evolutions", 0) < 1:
            return "no template evolution on a drifting stream"
        return None

    def trace_flags(self):
        return ["--batch-cap=%d" % TRACE_BATCH_CAP]


class LakeCrawl(Workload):
    def setup(self):
        self.lake = os.path.join(self.inputs, "lake")
        self.files = lake_files(self.lake)
        self.input_bytes = sum(os.path.getsize(os.path.join(self.lake, f))
                               for f in self.files)

    def operations(self):
        return [os.path.join(self.lake, f) for f in self.files]

    def command(self, out, meta):
        return ([self.bins["crawl"], self.lake, "--out=" + out,
                 "--manifest=" + os.path.join(meta, "manifest.json"),
                 "--catalog-out=" + os.path.join(meta, "catalog.txt"),
                 "--threads=" + THREADS], None)

    def assertions(self, meta):
        with open(os.path.join(meta, "manifest.json")) as f:
            manifest = json.load(f)
        by_path = {e["path"]: e for e in manifest["files"]}
        if sorted(by_path) != self.files:
            return "manifest does not list every lake file"
        for rel in self.files:
            tpl = os.path.join(meta, "templates", rel + ".txt")
            os.makedirs(os.path.dirname(tpl), exist_ok=True)
            write_templates(tpl, by_path[rel]["templates"])
        self.manifest = by_path
        return None

    def jobs(self, out, meta):
        return [(os.path.join(self.lake, rel), self.label("lake/" + rel),
                 os.path.join(meta, "templates", rel + ".txt"),
                 os.path.join(out, rel + ".tables"), -1)
                for rel in self.files]

    def verify(self, m, out, meta, rdir):
        verdicts = Workload.verify(self, m, out, meta, rdir)
        # The manifest's counts must agree with the tables on disk too.
        checked = {}
        for rel in self.files:
            path = os.path.join(self.lake, rel)
            ok, detail = verdicts[path]
            entry = getattr(self, "manifest", {}).get(rel)
            if ok and entry is not None and (
                    entry["records_per_template"] != detail["rows"]
                    or entry["noise_lines"] != detail["noise"]):
                ok, detail = False, "manifest counts differ from the tables"
            checked[path] = (ok, detail)
        return checked

    def trace_inputs(self, rdir):
        # One file per family keeps the traced run short; the fault pair
        # is its own family directory, so both of its files are included.
        picked, seen = [], set()
        for rel in self.files:
            family = rel.split("/")[0]
            if family in seen and family != "00-pair":
                continue
            seen.add(family)
            picked.append(rel)
        return [(os.path.join(self.lake, rel),
                 os.path.join(rdir, "meta", "templates", rel + ".txt"))
                for rel in picked]

    def trace_flags(self):
        return []


CLASSES = {"batch_cold": BatchCold, "warm_extract": WarmExtract,
           "lake_crawl": LakeCrawl, "follow_stream": FollowStream}


# ------------------------------------------------------------------ modes --

def count(verdicts, record):
    failed = [(op, d) for op, (ok, d) in sorted(verdicts.items()) if not ok]
    for op, reason in failed:
        record.setdefault(os.path.relpath(op, ROOT), reason)
    return len(verdicts), len(failed)


def end_to_end(wl, seconds):
    failures = {}
    attempted = failed = 0
    w0 = time.perf_counter()
    m, verdicts, rdir = wl.round(0)  # warm-up round, checked like the rest
    a, f = count(verdicts, failures)
    attempted, failed = attempted + a, failed + f
    shutil.rmtree(os.path.join(rdir, "out"), ignore_errors=True)
    log("warm-up round %.1fs (invocation %.1fs, checks and clean-up %.1fs)"
        % (time.perf_counter() - w0, m["wall_s"],
           time.perf_counter() - w0 - m["wall_s"]))
    timed = []
    spent = []  # seconds per round, its checks included
    deadline = time.perf_counter() + seconds
    # A round starts only if a typical round ends before the deadline, so
    # a run lasts about `seconds` whatever the round length; at least
    # MIN_ROUNDS rounds are timed.
    while len(timed) < MIN_ROUNDS or (
            time.perf_counter() + statistics.median(spent) <= deadline):
        r0 = time.perf_counter()
        m, verdicts, rdir = wl.round(len(timed) + 1)
        a, f = count(verdicts, failures)
        attempted, failed = attempted + a, failed + f
        shutil.rmtree(os.path.join(rdir, "out"), ignore_errors=True)
        timed.append(m)
        spent.append(time.perf_counter() - r0)
    for op, reason in sorted(failures.items()):
        log("failed: %s: %s" % (op, reason))
    med = lambda k: statistics.median(r[k] for r in timed)
    metrics = {
        "throughput_mb_s": (statistics.median(
            wl.input_bytes / MB / r["wall_s"] for r in timed), "MB/s"),
        "setup_s": (med("setup_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "cpu_s": (med("cpu_s"), "s"),
    }
    log("%d timed rounds (wall, peak RSS): %s" % (len(timed), ", ".join(
        "%.3fs %.0fMB" % (r["wall_s"], r["peak_rss_mb"]) for r in timed)))
    return True, attempted, failed, metrics


LAYER_UNITS = {
    "input.open_s": "s", "input.frame_mb_s": "MB/s", "sampling.s": "s",
    "generation.s": "s", "generation.charsets": "count",
    "generation.candidates": "count", "pruning.s": "s", "evaluation.s": "s",
    "evaluation.abort_ratio": "ratio", "score_cache.hit_ratio": "ratio",
    "refinement.s": "s", "discovery.s.t1": "s", "discovery.s.t4": "s",
    "residual.s": "s", "catalog.load_s": "s", "catalog.match_s": "s",
    "catalog.save_s": "s", "catalog.hit_ratio": "ratio",
    "scan.mb_s.t1": "MB/s", "scan.mb_s.t2": "MB/s", "scan.mb_s.t4": "MB/s",
    "render_csv.mb_s.t1": "MB/s", "render_csv.mb_s.t4": "MB/s",
    "collect.s": "s", "collect.peak_rss_mb": "MB", "extract.records": "count",
    "stream.mb_s": "MB/s", "stream.warmup_s": "s",
    "stream.discovery_runs": "count", "stream.evolutions": "count",
    "stream.late_noise_lines": "count",
}

MODULE_METRICS = {
    "core/input": "self_s.core_input",
    "util/sampler": "self_s.util_sampler",
    "generation": "self_s.generation",
    "pruning": "self_s.pruning",
    "scoring": "self_s.scoring",
    "refinement": "self_s.refinement",
    "core/datamaran": "self_s.core_datamaran",
    "template": "self_s.template",
    "extraction": "self_s.extraction",
    "core/stream": "self_s.core_stream",
}


def self_times(spans):
    """Per-name self time: duration minus the time covered by children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + (
            s["end"] - s["start"] - child[i])
    return out


def traced(wl):
    failures = {}
    m, verdicts, rdir = wl.round(0)
    attempted, failed = count(verdicts, failures)
    for op, reason in sorted(failures.items()):
        log("failed: %s: %s" % (op, reason))
    trace_json = os.path.join(wl.rundir, "trace.json")
    cmd = [wl.bins["pbtrace"], wl.name, trace_json] + wl.trace_flags()
    inputs = wl.trace_inputs(rdir)
    for path, tpl in inputs:
        cmd += [path, tpl]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    with open(trace_json) as f:
        trace = json.load(f)

    # Cross-check by an independent path: the in-process counting sink's
    # record totals must equal the row counts of the program's tables.
    correct = True
    for i, (path, _) in enumerate(inputs):
        ok, detail = verdicts[path]
        if not ok:
            continue
        mine = (trace["stream_counts"][i] if wl.name == "follow_stream"
                else trace["scan_counts"][i])
        theirs = detail["rows"]
        width = max(len(mine), len(theirs))
        pad = lambda v: v + [0] * (width - len(v))
        if pad(mine) != pad(theirs) or (
                wl.name == "follow_stream"
                and trace["stream_noise"][i] != detail["noise"]):
            log("cross-check mismatch on %s: in-process %s, tables %s" % (
                path, mine, theirs))
            correct = False

    selfs = self_times(trace["spans"])
    metrics = {k: (v, None) for k, v in trace["metrics"].items()}
    for module, name in MODULE_METRICS.items():
        metrics[name] = (selfs.get(module, 0.0), "s")
    late = [d["late"] for ok, d in verdicts.values() if ok]
    metrics["stream.late_noise_lines"] = (max(late, default=0), None)
    trace["self_s"] = selfs
    with open(trace_json, "w") as f:
        json.dump(trace, f, indent=1)
    log("spans and self times written to %s" % os.path.relpath(trace_json,
                                                                 ROOT))
    shutil.rmtree(os.path.join(rdir, "out"), ignore_errors=True)
    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "tools/datamaran_cli.cc",
                 "tools/datamaran_crawl.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from the root of a datamaran source "
                "checkout" % need, 2)

    t0 = time.perf_counter()
    bins = build()
    t1 = time.perf_counter()
    inputs = inputs_for(bins, args.workload, args.seed)
    t2 = time.perf_counter()
    rundir = os.path.join(BUILD, "runs", args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    wl = CLASSES[args.workload](args.workload, bins, inputs, rundir)
    wl.setup()
    log("build %.1fs, inputs %.1fs, workload set-up %.1fs" % (
        t1 - t0, t2 - t1, time.perf_counter() - t2))
    if args.trace:
        correct, attempted, failed, metrics = traced(wl)
    else:
        correct, attempted, failed, metrics = end_to_end(wl, args.seconds)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u or LAYER_UNITS[k]}
                    for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
