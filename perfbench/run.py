#!/usr/bin/env python3
"""Benchmark of the ccgmwe toolkit, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the reasons and predictions are in perfbench/predictions.json):

* shipped-presets: one operation is a cold ``ccgmwe run`` of one
  recognizer preset rec1-rec5 on the shipped 60-sentence corpus; the
  presets run in whole rounds, in an order drawn from the seed.
* scaled-experiment: one operation is a cold ``ccgmwe run`` with rec1 on a
  2,000-sentence corpus generated from the seed (perfbench/corpus.py).
* stage-chain: one operation is the README's subcommand chain on the
  shipped corpus, 13 cold processes; the seed is passed to ``sigtest``,
  whose exact branch must not depend on it.

The load is a closed loop with one client: one ccgmwe process at a time,
the next one started when the previous one has ended.  Operations run in
whole rounds for about --seconds.  Each operation's artifacts are hashed and
compared with perfbench/reference.json; where the seed has no reference
(scaled corpus, other seeds) the digests are printed and every later
operation must reproduce the first.  An operation fails when a process
exits non-zero, prints a traceback, or writes a differing artifact.

--trace 0 times cold processes and prints the end-to-end metrics.
--trace 1 runs the same operations in this process through
``ccgmwe.cli.main``, alternately untraced and traced (perfbench/tracing.py),
and prints the per-layer metrics.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --write-reference   # record reference.json
    python3 perfbench/selftest.py                # quick self-test
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"            # scratch space, removed when a run ends
TRACE_DIR = ".bench_trace"      # span dumps of traced runs
REFERENCE = os.path.join(HERE, "reference.json")
REQUIRED = ("src/ccgmwe/cli.py", "data/treebank.txt", "data/lexicon.tsv",
            "data/configs/base.cfg", "tools/build_corpus.py")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import ccgmwe.cli; "
                "print(time.perf_counter() - t, int('numpy' in sys.modules))")
PRESETS = ("rec1", "rec2", "rec3", "rec4", "rec5")
SHIPPED_SPLIT = ("1-40", "41-45", "46-60")


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


class Terminated(BaseException):
    """SIGTERM arrived: unwind so that the running child is killed and
    reaped and the scratch directory removed."""


def _terminate(signum, frame):
    raise Terminated()


def tree_tokens(path):
    """Leaf tokens of each tree in a treebank file: a leaf is the only
    bracket whose second field is not itself bracketed."""
    with open(path, encoding="utf-8") as handle:
        return [re.findall(r" ([^\s()]+)\)", line) for line in handle
                if not line.startswith("ID ")]


def tree_ids(path):
    with open(path, encoding="utf-8") as handle:
        return [line[3:].strip() for line in handle if line.startswith("ID ")]


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in lines)


def digests(opdir):
    """sha256 of every artifact under opdir, stderr captures excluded."""
    out = {}
    for base, _, files in os.walk(opdir):
        for name in files:
            if name.startswith("stderr_"):
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, opdir)] = \
                    hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(out.items()))


def compare(found, expected):
    """Problems with an operation's artifacts, as short strings."""
    problems = ["missing " + n for n in sorted(set(expected) - set(found))]
    problems += ["unexpected " + n for n in sorted(set(found) - set(expected))]
    problems += ["differs " + n for n in sorted(set(found) & set(expected))
                 if found[n] != expected[n]]
    return problems


# ----------------------------------------------------------------------
# Workloads: each gives its operations as rounds of keys, and each
# operation as a list of steps.  A step is ccgmwe argv (a list) or a
# callable that prepares a file the chain needs.
# ----------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed, inputs, quick):
        self.seed, self.inputs, self.quick = seed, inputs, quick
        self.expected = {}

    def rounds(self):
        while True:
            yield ["op"]

    def steps(self, key, opdir):
        raise NotImplementedError


class ShippedPresets(Workload):
    name = "shipped-presets"

    def __init__(self, seed, inputs, quick):
        super().__init__(seed, inputs, quick)
        self.order = random.Random(seed)

    def rounds(self):
        while True:
            keys = list(PRESETS)
            self.order.shuffle(keys)
            yield keys[:1] if self.quick else keys

    def steps(self, key, opdir):
        fragment = os.path.join(self.inputs, "output.cfg")
        write_lines(fragment, ["output = " + os.path.join(opdir, "out")])
        return [["run", "--config", "data/configs/base.cfg",
                 "--config", "data/configs/%s.cfg" % key,
                 "--config", fragment]]


class ScaledExperiment(Workload):
    name = "scaled-experiment"
    SENTENCES = 2000            # 1,600 train and 400 test
    QUICK_SENTENCES = 100

    def __init__(self, seed, inputs, quick):
        super().__init__(seed, inputs, quick)
        import corpus
        from ccgmwe.treebank import read_lexicon, write_treebank

        count = self.QUICK_SENTENCES if quick else self.SENTENCES
        records = corpus.generate(seed, count)
        self.treebank = os.path.join(inputs, "treebank.txt")
        write_treebank(self.treebank, records)
        info = corpus.describe(records, read_lexicon("data/lexicon.tsv"))
        print("corpus seed %d: %s" % (seed, json.dumps(info)), file=sys.stderr)
        self.train = "1-%d" % (count * 4 // 5)
        self.test = "%d-%d" % (count * 4 // 5 + 1, count)

    def steps(self, key, opdir):
        fragment = os.path.join(self.inputs, "scaled.cfg")
        write_lines(fragment, ["treebank = " + self.treebank, "dev =",
                               "train = " + self.train, "test = " + self.test,
                               "output = " + os.path.join(opdir, "out")])
        return [["run", "--config", "data/configs/base.cfg",
                 "--config", "data/configs/rec1.cfg", "--config", fragment]]


class StageChain(Workload):
    name = "stage-chain"

    def __init__(self, seed, inputs, quick):
        super().__init__(seed, inputs, quick)
        # no stage writes the plain test-token file that parse and
        # combine take, so the benchmark prepares it from the treebank
        test = set(range(46, 61))
        rows = [(sid, tokens) for sid, tokens in
                zip(tree_ids("data/treebank.txt"),
                    tree_tokens("data/treebank.txt")) if int(sid) in test]
        self.tokens = os.path.join(inputs, "tokens_test.txt")
        self.ids = os.path.join(inputs, "ids_test.txt")
        write_lines(self.tokens, [" ".join(tokens) for _, tokens in rows])
        write_lines(self.ids, [sid for sid, _ in rows])

    def steps(self, key, opdir):
        def at(name):
            return os.path.join(opdir, name)

        split = ["--train", SHIPPED_SPLIT[0], "--dev", SHIPPED_SPLIT[1],
                 "--test", SHIPPED_SPLIT[2]]

        def collapsed_test_tokens():
            write_lines(at("tokens_test_b.txt"),
                        [" ".join(tokens) for tokens in
                         tree_tokens(at("splits_b/treebank_test.txt"))])

        return [
            ["split", "--treebank", "data/treebank.txt", *split,
             "--output-dir", at("splits")],
            ["recognize", "--treebank", "data/treebank.txt",
             "--lexicon", "data/lexicon.tsv", "--preset", "rec1",
             "--output", at("occ.tsv")],
            ["collapse", "--treebank", "data/treebank.txt",
             "--occurrences", at("occ.tsv"), "--output-dir", at("collapsed")],
            ["split", "--treebank", at("collapsed/treebank_b.txt"), *split,
             "--output-dir", at("splits_b")],
            ["train", "--treebank", at("splits/treebank_train.txt"),
             "--smoothing", "0.1", "--output", at("model_a.tsv")],
            ["train", "--treebank", at("splits_b/treebank_train.txt"),
             "--smoothing", "0.1", "--output", at("model_b.tsv")],
            ["extract-deps", "--treebank", at("splits/treebank_test.txt"),
             "--output", at("gold_a.deps")],
            ["parse", "--model", at("model_a.tsv"), "--tokens", self.tokens,
             "--ids", self.ids, "--output", at("out_a.deps")],
            collapsed_test_tokens,
            ["parse", "--model", at("model_b.tsv"),
             "--tokens", at("tokens_test_b.txt"), "--ids", self.ids,
             "--output", at("out_b.deps")],
            ["combine", "--out-a", at("out_a.deps"), "--out-b", at("out_b.deps"),
             "--occurrences", at("occ.tsv"), "--tokens", self.tokens,
             "--scheme", "rightmostMed", "--output", at("combined.deps")],
            ["eval", "--system", at("out_a.deps"), "--gold", at("gold_a.deps"),
             "--per-sentence", at("counts_a.tsv")],
            ["eval", "--system", at("combined.deps"), "--gold", at("gold_a.deps"),
             "--per-sentence", at("counts_combined.tsv")],
            # 2^15 <= 32768 iterations: the exact enumeration branch
            ["sigtest", "--x", at("counts_combined.tsv"), "--y", at("counts_a.tsv"),
             "--iterations", "32768", "--seed", str(self.seed)],
        ]


WORKLOADS = {w.name: w for w in (ShippedPresets, ScaledExperiment, StageChain)}


def load_expected(workload):
    """Reference digests by operation key, or {} where the seed or corpus
    size has none."""
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)[workload.name]
    if "seed" in reference:
        if workload.seed != reference["seed"] or workload.quick:
            return {}
        reference = reference["ops"]
    return dict(reference)


# ----------------------------------------------------------------------
# Running operations
# ----------------------------------------------------------------------

class Op:
    def __init__(self, key):
        self.key = key
        self.wall = self.cpu = self.rss_mb = 0.0
        self.problems = []


def spawn(argv, stdout, stderr):
    """Run one process to its end; (exit code, wall s, cpu s, max RSS MB)
    from its own rusage.  Thread-count variables are left as the user has
    them, because users pay for the thread pools numpy starts."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _fresh(opdir):
    shutil.rmtree(opdir, ignore_errors=True)
    os.makedirs(opdir)


def _capture(opdir, index, argv):
    return (os.path.join(opdir, "stdout_%02d_%s.txt" % (index, argv[0])),
            os.path.join(opdir, "stderr_%02d.txt" % index))


def _stderr_problem(path, code):
    with open(path, encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    if code != 0:
        return "exit %d: %s" % (code, text.strip()[-300:])
    if "Traceback" in text:
        return "traceback: " + text.strip()[-300:]
    return None


def run_cold(workload, key, opdir):
    """One operation as cold ccgmwe processes, one at a time."""
    op = Op(key)
    _fresh(opdir)
    start = time.perf_counter()
    for index, step in enumerate(workload.steps(key, opdir)):
        if callable(step):
            step()
            continue
        out, err = _capture(opdir, index, step)
        code, _, cpu, rss = spawn([sys.executable, "-m", "ccgmwe.cli", *step],
                                  out, err)
        op.cpu += cpu
        op.rss_mb = max(op.rss_mb, rss)
        problem = _stderr_problem(err, code)
        if problem:
            op.problems.append("%s: %s" % (step[0], problem))
            break
    op.wall = time.perf_counter() - start
    return op


def run_inproc(workload, key, opdir):
    """One operation in this process through ccgmwe.cli.main."""
    import ccgmwe.cli

    op = Op(key)
    _fresh(opdir)
    start = time.perf_counter()
    for index, step in enumerate(workload.steps(key, opdir)):
        if callable(step):
            step()
            continue
        out, err = _capture(opdir, index, step)
        with open(out, "w", encoding="utf-8") as o, \
                open(err, "w", encoding="utf-8") as e, \
                contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
            try:
                code = ccgmwe.cli.main(list(step))
            except (Exception, SystemExit):
                traceback.print_exc()
                code = 1
        problem = _stderr_problem(err, code)
        if problem:
            op.problems.append("%s: %s" % (step[0], problem))
            break
    op.wall = time.perf_counter() - start
    return op


def check(workload, op, opdir):
    """Hash the operation's artifacts and compare them with the reference,
    or, where there is none, with the first operation of the same key."""
    found = digests(opdir)
    expected = workload.expected.get(op.key)
    if expected is None:
        workload.expected[op.key] = found
        print("digests %s %s seed %d" % (workload.name, op.key, workload.seed))
        for name, digest in found.items():
            print("digest %s %s" % (digest, name))
        return
    op.problems += compare(found, expected)


def run_loop(workload, seconds, run_round):
    """Run whole rounds while the next one, as long as the slowest so far,
    still ends within `seconds` (one round in quick mode, and always at
    least one); returns the rounds' results."""
    start = time.perf_counter()
    results = []
    slowest = 0.0
    for keys in workload.rounds():
        now = time.perf_counter()
        if results and (workload.quick or now + slowest > start + seconds):
            break
        results.append(run_round(keys))
        slowest = max(slowest, time.perf_counter() - now)
    return results


def tail(values):
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timed_help():
    """Wall time of one cold ``ccgmwe --help``."""
    code, wall, _, _ = spawn([sys.executable, "-m", "ccgmwe.cli", "--help"],
                             os.devnull, os.devnull)
    if code != 0:
        raise BenchError("ccgmwe --help exited %d" % code)
    return wall


def _checked(workload, runner, key, opdir):
    op = runner(workload, key, opdir)
    if not op.problems:
        check(workload, op, opdir)
    return op


def end_to_end(workload, seconds, opdir):
    """Cold-process operations; the metrics of BENCHMARK.json end_to_end."""
    timed_help()                    # compiles bytecode left stale by a checkout
    # set-up samples are spread over the run, one after each round, so
    # they see the same machine as the operations do
    setup = [timed_help() for _ in range(1 if workload.quick else SETUP_REPEATS)]

    def run_round(keys):
        ops = [_checked(workload, run_cold, key, opdir) for key in keys]
        setup.append(timed_help())
        return ops

    ops = [op for ops in run_loop(workload, seconds, run_round) for op in ops]
    value, percentile, count = tail([op.wall for op in ops])
    print("%s: wall_s_tail is the %.1fth percentile of %d operations"
          % (workload.name, percentile, count), file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median([op.wall for op in ops]), "s"),
        "wall_s_tail": (value, "s"),
        "cpu_s": (statistics.median([op.cpu for op in ops]), "s"),
        "peak_rss_mb": (statistics.median([op.rss_mb for op in ops]), "MB"),
    }
    return ops, metrics, []


def import_probe():
    """(seconds to import ccgmwe.cli, 1 if that loaded numpy) in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    line = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          check=True, capture_output=True, text=True).stdout
    seconds, numpy = line.split()
    return float(seconds), int(numpy)


def per_layer(workload, seconds, opdir):
    """In-process operations, each round untraced and traced, the two
    halves in alternating order so that drift in machine speed cancels in
    trace.overhead_s; the metrics of BENCHMARK.json per_layer, per
    operation, as the median over rounds of the round's mean."""
    import tracing

    probes = [import_probe() for _ in range(1 if workload.quick else 5)]
    tracer = tracing.Tracer()
    problems = []
    first_counts = {}
    rounds = []

    def run_traced(keys):
        traced = []
        with tracer:
            for key in keys:
                op_id = sum(len(r) for _, r in rounds) + len(traced)
                tracer.begin(op_id)
                op = _checked(workload, run_inproc, key, opdir)
                op.summary = tracer.summary()
                traced.append(op)
        return traced

    def run_round(keys):
        if len(rounds) % 2:
            traced = run_traced(keys)
            plain = [_checked(workload, run_inproc, key, opdir) for key in keys]
        else:
            plain = [_checked(workload, run_inproc, key, opdir) for key in keys]
            traced = run_traced(keys)
        for op in traced:
            layer_sum = sum(op.summary["%s.self_s" % layer]
                            for layer in tracing.LAYERS)
            if layer_sum > op.wall:
                problems.append("layer self times %.6f s exceed wall %.6f s"
                                % (layer_sum, op.wall))
            counts = {name: op.summary[name] for name in tracing.COUNTS}
            if first_counts.setdefault(op.key, counts) != counts:
                problems.append("counts of %s differ between operations: %s"
                                % (op.key, counts))
        rounds.append((plain, traced))
        return plain + traced

    ops = [op for ops in run_loop(workload, seconds, run_round) for op in ops]
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.dump(os.path.join(TRACE_DIR, workload.name + ".jsonl"))

    def per_round(value):
        return statistics.median([statistics.fmean(value(plain, traced))
                                  for plain, traced in rounds])

    metrics = {name: (per_round(lambda _, traced, n=name:
                                [op.summary[n] for op in traced]), _unit(name))
               for name in rounds[0][1][0].summary}
    metrics["cli.import_s"] = (statistics.median([p[0] for p in probes]), "s")
    metrics["cli.numpy_at_import"] = (max(p[1] for p in probes), "count")
    metrics["trace.overhead_s"] = (per_round(lambda plain, traced: [
        t.wall - p.wall for p, t in zip(plain, traced)]), "s")
    failed = sum(bool(op.problems) for op in ops)
    metrics["failed_frac"] = (failed / len(ops), "ratio")
    return ops, metrics, problems


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if ".tokens_per_s." in name:
        return "tokens/s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def check_checkout():
    missing = [path for path in REQUIRED if not os.path.isfile(path)]
    if missing:
        raise BenchError("run from the root of a ccgmwe checkout; missing "
                         + ", ".join(missing))
    sys.path.insert(0, SRC)
    import ccgmwe

    if not os.path.abspath(ccgmwe.__file__).startswith(SRC + os.sep):
        raise BenchError("ccgmwe imported from %s, not from %s"
                         % (ccgmwe.__file__, SRC))


def declared_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


@contextlib.contextmanager
def scratch(name):
    """A private directory under WORK with inputs/ and op/, removed after."""
    run_dir = os.path.join(WORK, "%s-%d" % (name, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "inputs"))
    try:
        yield os.path.join(run_dir, "inputs"), os.path.join(run_dir, "op")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def benchmark(name, seed, seconds, trace, quick=False):
    """Run one workload; returns the result object that main prints."""
    with scratch(name) as (inputs, opdir):
        workload = WORKLOADS[name](seed, inputs, quick)
        workload.expected = load_expected(workload)
        measure = per_layer if trace else end_to_end
        ops, metrics, problems = measure(workload, seconds, opdir)
    for op in ops:
        for problem in op.problems:
            print("FAILED %s %s: %s" % (name, op.key, problem), file=sys.stderr)
    for problem in problems:
        print("CHECK %s: %s" % (name, problem), file=sys.stderr)
    declared = declared_metrics(trace)
    if set(declared) != set(metrics):
        raise BenchError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(declared) ^ set(metrics)))
    failed = sum(bool(op.problems) for op in ops)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in declared},
    }


def write_reference():
    """Record the digests of one operation per key of every workload, at
    the default seed, in reference.json."""
    reference = {}
    for name, cls in WORKLOADS.items():
        with scratch(name) as (inputs, opdir):
            workload = cls(DEFAULT_SEED, inputs, False)
            ops = {}
            for key in next(workload.rounds()):
                op = run_cold(workload, key, opdir)
                if op.problems:
                    raise BenchError("%s %s: %s" % (name, key, op.problems))
                ops[key] = digests(opdir)
        reference[name] = ops
    reference[ScaledExperiment.name] = {
        "seed": DEFAULT_SEED, "ops": reference[ScaledExperiment.name]}
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--workload", choices=sorted(WORKLOADS))
    cli.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cli.add_argument("--seconds", type=float, default=10.0)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cli.add_argument("--quick", action="store_true",
                     help="smallest corpus, one round, one set-up sample")
    cli.add_argument("--write-reference", action="store_true")
    args = cli.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        check_checkout()
        if args.write_reference:
            write_reference()
            return 0
        if not args.workload:
            cli.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds,
                           args.trace, args.quick)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    except Terminated:
        return 128 + signal.SIGTERM
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
