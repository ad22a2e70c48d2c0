"""fedseg benchmark: three closed-loop workloads, measured from outside.

    python3 perfbench/run.py --workload oracle_seed --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

The package is imported from the src/ directory beside perfbench/. Every
operation of a run uses --seed as the benchmark seed (seed 0 is the
acceptance suite's seed 0), so all of them do identical work, and each is
checked against the run's first one. One caller runs operations back to back (a closed loop) until the next
would end after --seconds; there is always at least one.

--trace 0 prints the end-to-end metrics. --trace 1 wraps fedseg's layer
boundaries (see tracing.py) for every other operation: untraced, traced,
untraced, and so on while time remains. It prints the per-layer metrics of
the traced operations, the tracing overhead against the untraced ones, and
writes every span to .perfbench/trace-<workload>-seed<seed>.jsonl. The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
BENCHMARK.json lists the workloads and metrics; metrics.py records which
end-to-end metric each per-layer metric should move.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import metrics
import stats
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Fixed so that federation workers (2 on corrupted_fed) x BLAS threads stays
# within a 2-core machine: the numbers then measure the program, not the
# scheduler.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def untraced(name, fn, *args, **kwargs):
    """Stands in for Tracer.call when tracing is off."""
    return fn(*args, **kwargs)


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def equal_to_reference(facts, reference, keys):
    return [f"{key} differs from the first operation's" for key in keys
            if facts[key] != reference[key]]


# -- workloads -------------------------------------------------------------------


class BenchmarkSeed:
    """One fedseg.benchmark.run_benchmark seed (oracle mode).

    oracle_seed: the acceptance suite's unit, at workers=1 with the bound.
    corrupted_fed: the corrupted variant (48-image dead site_b against
    12-image site_a) on the federation thread pool, workers=2, no bound.
    """

    def __init__(self, fs, seed, corrupted, workers, with_bound):
        self.fs, self.seed = fs, seed
        self.corrupted, self.workers, self.with_bound = corrupted, workers, with_bound
        self.target_hash = None

    def setup(self, call, workdir):
        _, target = call("benchmark.make_benchmark_domains",
                         self.fs.benchmark.make_benchmark_domains, self.seed,
                         self.corrupted)
        self.target_hash = self.fs.util.hash_images(target.images)

    def run(self, call):
        return call("benchmark.run_benchmark", self.fs.benchmark.run_benchmark,
                    seed=self.seed, corrupted=self.corrupted, workers=self.workers,
                    with_bound=self.with_bound)

    def facts(self, bench):
        result = bench.result
        serialize = self.fs.autodiff.serialize_params
        return {
            "audit_ok": bool(self.fs.federation.audit_check(result.audit_log)),
            "label_reads": [am.target_label_reads for am in result.adapted.models],
            "train_label_reads": sum(am.target_label_reads for am in result.adapted.models),
            "bound": (bench.bound_lhs, bench.bound_rhs),
            "target_hash": result.weights.target_hash,
            "digests": [digest(serialize(am.model.state_dict()))
                        for am in result.adapted.models],
            "dice": (bench.pre_dice, bench.post_dice, bench.mode_dice),
            "dice_fmuda": bench.mode_dice["fmuda"],
            "bus_messages": len(result.audit_log),
            "bus_bytes": sum(m.byte_size for m in result.audit_log.records),
        }

    def check(self, facts, reference):
        problems = []
        if not facts["audit_ok"]:
            problems.append("audit_check failed")
        if any(facts["label_reads"]):
            problems.append(f"target labels read in training: {facts['label_reads']}")
        if self.with_bound:
            lhs, rhs = facts["bound"]
            if not (math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs):
                problems.append(f"bound violated or not finite: {lhs} > {rhs}")
        if facts["target_hash"] != self.target_hash:
            problems.append("the run trained on other target images than set-up made")
        return problems + equal_to_reference(facts, reference, ("digests", "dice"))


class EnsembleEval:
    """One in-process `fedseg eval --oracle` of a run made during set-up.

    Set-up generates 4 domains of 192 32x32 images and trains them briefly
    with `fedseg run`; model quality does not change the cost of eval.
    """

    gen_flags = ["--domains", "4", "--images", "192", "--size", "32"]
    run_flags = ["--epochs-pretrain", "1", "--epochs-adapt", "0"]

    def __init__(self, fs, seed):
        self.fs, self.seed = fs, str(seed)
        self.base = None

    def _cli(self, call, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = call("cli.main", self.fs.cli.main, argv)
        if code != 0:
            raise RuntimeError(f"fedseg {argv[0]} exited with {code}")

    def setup(self, call, workdir):
        if self.base is not None:
            shutil.rmtree(self.base)
        self.base = tempfile.mkdtemp(prefix="ensemble_eval-", dir=workdir)
        self.manifest = os.path.join(self.base, "data", "manifest.txt")
        self.run_dir = os.path.join(self.base, "run")
        self.out = os.path.join(self.base, "eval")
        self._cli(call, ["gen", "--out", os.path.join(self.base, "data"),
                         "--seed", self.seed] + self.gen_flags)
        self._cli(call, ["run", "--data", self.manifest, "--out", self.run_dir,
                         "--seed", self.seed] + self.run_flags)

    def run(self, call):
        self._cli(call, ["eval", "--data", self.manifest, "--run", self.run_dir,
                         "--oracle", "--out", self.out, "--seed", self.seed])

    def _file_digest(self, path, skip_prefix=None):
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        return digest(b"".join(l for l in lines
                               if not (skip_prefix and l.startswith(skip_prefix))))

    def facts(self, _):
        """Reads what eval wrote, then removes it so that the next operation
        has to write all of it again."""
        ev, fs = self.fs.evaluation, self.fs
        mask_dir = os.path.join(self.out, "masks", "fmuda")
        report = ev.read_report(os.path.join(self.out, "report.txt"))
        ckpts = sorted(f for f in os.listdir(os.path.join(self.run_dir, "checkpoints"))
                       if f.endswith("_adapted.fpar"))
        audit = fs.federation.AuditLog.read(os.path.join(self.run_dir, "audit.log"))
        facts = {
            "audit_ok": bool(fs.federation.audit_check(audit)),
            "label_reads": [int(report["header"]["audit.target_label_reads_before_eval"])],
            "digests": [digest(fs.autodiff.serialize_params(fs.autodiff.load_params(
                os.path.join(self.run_dir, "checkpoints", f)))) for f in ckpts],
            "masks": [self._file_digest(os.path.join(mask_dir, f))
                      for f in sorted(os.listdir(mask_dir))],
            "report": self._file_digest(os.path.join(self.out, "report.txt"), b"timestamp:"),
            "embeddings": self._file_digest(os.path.join(self.out, "embeddings.csv")),
            "dice": report["tables"]["dice"] + report["tables"]["per_model_dice"],
            "dice_fmuda": float(dict(report["tables"]["dice"])["fmuda"]),
        }
        shutil.rmtree(self.out)
        return facts

    def check(self, facts, reference):
        problems = []
        if not facts["audit_ok"]:
            problems.append("audit_check failed on the run's audit.log")
        if any(facts["label_reads"]):
            problems.append(f"target labels read before eval: {facts['label_reads']}")
        return problems + equal_to_reference(
            facts, reference, ("digests", "masks", "report", "embeddings", "dice"))


def make_workload(name, fs, seed):
    if name == "oracle_seed":
        return BenchmarkSeed(fs, seed, corrupted=False, workers=1, with_bound=True)
    if name == "corrupted_fed":
        return BenchmarkSeed(fs, seed, corrupted=True, workers=2, with_bound=False)
    return EnsembleEval(fs, seed)


# -- measurement -----------------------------------------------------------------


def closed_loop(workload, seconds, tally, call=untraced, tracer=None, first_op=1):
    """Operations back to back until the next one would end after `seconds`
    (at least one). Returns per-operation wall and CPU times and op labels."""
    walls, cpus, ops = [], [], []
    start = time.perf_counter()
    while True:
        op = f"op{first_op + len(walls)}"
        if tracer is not None:
            tracer.op = op
        facts = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result, error = call("perfbench.op", workload.run, call), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        ops.append(op)
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                facts = workload.facts(result)
            except Exception as exc:  # unreadable outputs fail the operation
                facts, error = None, f"outputs unreadable: {type(exc).__name__}: {exc}"
        tally.record(facts, error)
        if time.perf_counter() - start + walls[-1] > seconds:
            return walls, cpus, ops


# A set-up of a few milliseconds is at the mercy of whatever else the machine
# runs in that instant; repeating it for at least this long lets the median
# span those swings.
SETUP_MIN_SECONDS = 2.0
SETUP_MIN_REPEATS = 3


def timed_setups(workload, workdir):
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup(untraced, workdir)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(workload, args, workdir, tally):
    setups = timed_setups(workload, workdir)
    walls, cpus, _ = closed_loop(workload, args.seconds, tally)
    values = {
        "setup_s": stats.median(setups),
        "wall_s": stats.median(walls),
        "cpu_s": stats.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "wall_s": f"median of {len(walls)} operations",
             "cpu_s": f"median of {len(cpus)} operations"}
    reported = {"fail_ratio": tally.fail_ratio,
                "dice_fmuda": tally.reference["dice_fmuda"] if tally.reference else 0.0}
    for name, value in list(values.items()) + list(reported.items()):
        unit = {**metrics.END_TO_END, **metrics.REPORTED_ONLY}[name][0]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {unit}{note}")
    return {name: {"value": v, "unit": metrics.END_TO_END[name][0]}
            for name, v in values.items()}


def traced_run(fs, workload, args, workdir, tally, machine):
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, fs)
    try:
        tracer.op = "setup"
        workload.setup(tracer.call, workdir)
    finally:
        tracer.op = None
        patches.undo()
    # Untraced operations come before and after each traced one, so that a
    # machine getting slower or faster during the run cancels out of the
    # overhead instead of reading as it.
    plain_walls, _, _ = closed_loop(workload, 0.0, tally)
    walls, ops = [], []
    start = time.perf_counter()
    while True:
        patches = tracing.install(tracer, fs)
        try:
            traced, _, op = closed_loop(workload, 0.0, tally, call=tracer.call,
                                        tracer=tracer, first_op=tally.attempted + 1)
        finally:
            patches.undo()
        plain, _, _ = closed_loop(workload, 0.0, tally)
        walls += traced
        ops += op
        plain_walls += plain
        if time.perf_counter() - start + traced[-1] + plain[-1] > args.seconds:
            break

    values, samples = tracing.layer_metrics(tracer, ops, ["setup"])
    ref = tally.reference or {}
    values["federation.bus.messages"] = ref.get("bus_messages", 0)
    values["federation.bus.bytes"] = ref.get("bus_bytes", 0)
    values["federation.train_label_reads"] = ref.get("train_label_reads", 0)
    values["ensembling.dice_fmuda"] = ref.get("dice_fmuda", 0.0)
    plain_s, traced_s = stats.median(plain_walls), stats.median(walls)
    values["trace.untraced_wall_s"] = plain_s
    values["trace.wall_s"] = traced_s
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s

    path = write_spans(tracer, ops, values, args, machine)
    for name in metrics.PER_LAYER:
        note = f"  ({samples[name]} calls)" if name in samples else ""
        print(f"{name} = {values[name]!r} {metrics.PER_LAYER[name][0]}{note}")
    print(f"spans: {path} ({len(tracer.spans)} spans; untraced operations "
          f"{len(plain_walls)}, traced {len(walls)})")
    return {name: {"value": values[name], "unit": metrics.PER_LAYER[name][0]}
            for name in metrics.PER_LAYER}


def write_spans(tracer, ops, values, args, machine):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine, "ops": ops,
            "layer_self_s": {op: tracing.layer_self_times(tracer, op)
                             for op in ["setup"] + ops},
            "metrics": values,
        }) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps(list(s)) + "\n")
    return os.path.relpath(path, ROOT)


# -- machine and entry point ---------------------------------------------------------


def git_rev():
    """HEAD of the checkout, or "unknown" where it is not a git repository
    (the ceiling keeps git from reporting an enclosing repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """Digest of the package sources, which names the program version when
    there is no git revision."""
    pkg = os.path.join(ROOT, "src", "fedseg")
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def machine_facts(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "git_rev": git_rev(),
            "src_digest": source_digest()}


def import_fedseg():
    """Import the package from src/ beside perfbench/, with BLAS threads held
    fixed."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fedseg", "__init__.py")):
        raise SystemExit(f"perfbench: no fedseg package under {src}")
    sys.path.insert(0, src)
    import numpy
    import fedseg.benchmark
    import fedseg.cli
    return numpy, fedseg


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in metrics.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        print(f"== {name}")
        print(proc.stdout, end="")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=metrics.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    np, fedseg = import_fedseg()
    machine = machine_facts(np)
    print("machine: " + json.dumps(machine))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} (closed loop, one caller)")
    workload = make_workload(args.workload, fedseg, args.seed)
    tally = stats.Tally(workload.check)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.trace:
            values = traced_run(fedseg, workload, args, workdir, tally, machine)
        else:
            values = end_to_end(workload, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
