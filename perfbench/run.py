"""fairrec benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a fairrec checkout:

    python3 perfbench/run.py --workload table1-paper --seed 0 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports wall_s, setup_s,
peak_rss_mb and ok_ratio. ``--trace 1`` measures half the time untraced and
half traced, and reports the per-layer metrics, including the traced to
untraced wall-time ratio. Readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Every repetition runs in fresh processes that import fairrec
from ``src/`` of the checkout. Scratch files go to ``.perfbench_out/``, which
also receives a full record of each run, the environment included.

wall_s and setup_s are medians of times scaled to a reference host speed:
each process's times are divided by the host's slowness, measured by a fixed
calibration right before and right after it (see calibrate.py). The unscaled
medians are printed too. The per-layer times are not scaled.

``--write-reference`` stores the outputs of this seed as the committed
reference that later runs of the same seed are checked against.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_PROBES = 1
TIME_LIMIT_S = 170.0
THREAD_ENV = ("FAIRREC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
ALL_SPEC_LABELS = workloads.DEFAULT_PENALTIES


def layer_units() -> dict:
    """Unit of every per-layer metric, in print order."""
    units = {
        "factorization.predict_entries.calls_per_iter": "count",
        # from entry counts and model width, not measured
        "factorization.gather_bytes_per_iter": "bytes-computed",
        "factorization.objective.ms_per_iter": "ms",
        "factorization.objective_gradient.ms_per_iter": "ms",
        "penalties.penalty_value.ms_per_iter": "ms",
        "penalties.penalty_gradient.ms_per_iter": "ms",
    }
    for label in ALL_SPEC_LABELS:
        key = tracer.safe_label(label)
        units[f"factorization.predict_entries.calls_per_iter.{key}"] = "count"
        units[f"penalties.penalty_value.{key}.ms_per_iter"] = "ms"
        units[f"penalties.penalty_gradient.{key}.ms_per_iter"] = "ms"
    units.update({
        "trainer.iterations": "count", "trainer.train.ms_per_iter": "ms",
        "trainer.adam_step.ms_per_iter": "ms", "trainer.self.ms_per_iter": "ms",
        "synthgen.generate.calls": "count", "synthgen.generate.ms": "ms",
        "synthgen.expected_value_eval.ms": "ms", "synthgen.eval_pairs": "count",
        "movielens.parse_ml1m.ms": "ms", "movielens.parse_ml1m.lines_per_s": "lines/s",
        "movielens.filter_dataset.ms": "ms", "movielens.split.calls": "count",
        "movielens.split.ms": "ms",
        "metrics.full_report.calls": "count", "metrics.full_report.ms": "ms",
        "harness.trials": "count", "harness.run_trial.ms_p50": "ms",
        "harness.pool_util": "ratio",
        "core.format_dataset.ms": "ms", "core.parse_dataset.ms": "ms",
        "core.parse_dataset.lines_per_s": "lines/s",
        "trainer.format_model.ms": "ms", "trainer.parse_model.ms": "ms",
        "cli.synth-gen.s": "s", "cli.train.s": "s", "cli.eval.s": "s",
        "trace.overhead_ratio": "ratio", "trace.absent_bindings": "count",
    })
    return units


def environment() -> dict:
    """Versions, CPU and the thread settings in effect for this run."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            caches[f"L{fields['level']}-{fields['type']}"] = fields["size"]
        except OSError:
            continue
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


class Runner:
    """Starts the fresh fairrec processes of one benchmark run, one at a time,
    with a host-speed calibration before and after each."""

    def __init__(self, root: str, workdir: str, started: float):
        self.root = root
        self.workdir = workdir
        self.started = started
        self.count = 0
        self.calibration = calibrate.Calibration()
        self.last_calibration = None
        self.calibrations = []
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.started)

    def worker(self, *args):
        """Run worker.py between two calibrations.

        Returns (result or None, stdout, wall seconds, setup seconds, scale),
        where the scale turns this process's times into times at the
        reference host speed (see calibrate.py). The calibration after one
        process is the one before the next, as the parent does no heavy work
        in between.
        """
        if self.last_calibration is None:
            self.last_calibration = self.calibration.run()
            self.calibrations.append(self.last_calibration)
        self.count += 1
        result_file = os.path.join(self.workdir, f"result-{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), result_file, *args]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - spawned
        after = self.calibration.run()
        self.calibrations.append(after)
        scale = 2.0 / (self.last_calibration[0] + after[0])
        self.last_calibration = after
        if stderr.strip():
            sys.stderr.write(stderr)
        if not os.path.exists(result_file):
            return None, stdout, wall, None, scale
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_file)
        expected = os.path.join(self.root, "src", "fairrec", "__init__.py")
        if os.path.realpath(result["fairrec_file"]) != os.path.realpath(expected):
            raise SystemExit(f"fairrec was imported from {result['fairrec_file']}, "
                             f"not from this checkout")
        return result, stdout, wall, result["ready"] - spawned, scale


class Measurement:
    """Repetitions of one workload in one mode, with their set-up and memory samples."""

    def __init__(self):
        self.reps = []
        self.setup_s = []
        self.setup_ref_s = []
        self.peak_rss_mb = []
        self.absent = set()

    def add_process(self, result, setup, scale) -> None:
        if result is None:
            return
        self.setup_s.append(setup)
        self.setup_ref_s.append(setup * scale)
        self.absent.update(result.get("absent", ()))


def _cli_rep(runner: Runner, m: Measurement, name: str, seed: int, trace: bool) -> None:
    """synth-gen, train and eval, each in its own process."""
    rep = {"wall_s": 0.0, "wall_ref_s": 0.0, "command_s": [], "spans": [], "exit_codes": [],
           "stdouts": []}
    rss = 0.0
    for argv in workloads.cli_commands(name, seed, runner.workdir):
        result, stdout, wall, setup, scale = runner.worker("cli", "1" if trace else "0", *argv)
        m.add_process(result, setup, scale)
        rep["wall_s"] += wall
        rep["wall_ref_s"] += wall * scale
        rep["command_s"].append(wall)
        rep["stdouts"].append(stdout)
        rep["exit_codes"].append(result["exit_code"] if result else -1)
        if result:
            rep["spans"].append(result["spans"])
            rss = max(rss, result["peak_rss_kb"] / 1024.0)
    rep["output"] = workloads.parse_cli_output(rep["stdouts"])
    m.reps.append(rep)
    m.peak_rss_mb.append(rss)


def _library_rep(runner: Runner, m: Measurement, request: dict) -> None:
    """One repetition in one worker process."""
    result, _, wall, setup, scale = runner.worker("rep", json.dumps(request))
    m.add_process(result, setup, scale)
    if result is None:
        m.reps.append({"wall_s": wall, "wall_ref_s": wall * scale, "error": "worker failed",
                       "spans": []})
    else:
        rep = result["rep"]
        rep["wall_ref_s"] = rep["wall_s"] * scale
        rep["spans"] = [rep["spans"]]
        m.reps.append(rep)
        m.peak_rss_mb.append(result["peak_rss_kb"] / 1024.0)


def measure(runner: Runner, name: str, seed: int, seconds: float, trace: bool,
            ml_path) -> Measurement:
    """Repetitions, each in fresh processes, until ``seconds`` have passed."""
    m = Measurement()
    request = {"workload": name, "seed": seed, "trace": trace, "ml_path": ml_path}
    until = time.monotonic() + seconds
    while not m.reps or (time.monotonic() < until and runner.remaining() > 60):
        if WORKLOADS[name]["entry"] == "cli":
            _cli_rep(runner, m, name, seed, trace)
        else:
            _library_rep(runner, m, request)
    return m


def merge_process_spans(per_process) -> list:
    """Spans of several processes as one list with ids that stay unique."""
    merged = []
    for k, spans in enumerate(per_process):
        offset = k * 10**9
        for s in spans:
            s = dict(s, id=s["id"] + offset)
            if s["parent"] is not None:
                s["parent"] += offset
            merged.append(s)
    return merged


class Checker:
    """Output checks; counts attempted and failed operations."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.reference = workloads.reference_for(workloads.load_references(), name, seed)
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.notes = []

    def check(self, rep: dict, label: str) -> None:
        per_rep = workloads.operations_per_rep(self.name)
        self.attempted += per_rep
        if "error" in rep:
            self.failed += per_rep
            self.notes.append(f"{label}: {rep['error']}")
            return
        if WORKLOADS[self.name]["entry"] == "cli":
            flags = workloads.check_cli(self.name, rep, self.reference)
            failed = flags.count(False)
            result = rep
        else:
            result = rep["result"]
            failed = sum(workloads.check_table(self.name, result, self.reference).values())
        comparable = workloads.comparable_result(self.name, result)
        if self.first is None:
            self.first = comparable
        elif comparable != self.first:
            failed = per_rep
            self.notes.append(f"{label}: output differs from the first repetition")
        if failed:
            self.notes.append(f"{label}: {failed} of {per_rep} operations failed their checks")
        self.failed += failed


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(m: Measurement, checker: Checker, probes: Measurement) -> dict:
    """Times at the reference host speed; see calibrate.py."""
    walls = [r["wall_ref_s"] for r in m.reps]
    setups = probes.setup_ref_s + m.setup_ref_s
    ok = 1.0 - checker.failed / checker.attempted
    return {
        "wall_s": (median(walls), len(walls)),
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (median(m.peak_rss_mb or [0.0]), len(m.peak_rss_mb)),
        "ok_ratio": (ok, checker.attempted),
    }


def per_layer_metrics(name: str, untraced: Measurement, traced: Measurement) -> dict:
    w = WORKLOADS[name]
    workers = min(w["threads"], w.get("trials", 1))
    per_rep = []
    for rep in traced.reps:
        if "error" in rep:
            continue
        spans = merge_process_spans(rep["spans"])
        values = tracer.layer_metrics(spans, rep["wall_s"], workers, ALL_SPEC_LABELS)
        # a command's time runs from its process's spawn to its exit
        for cmd, wall in zip(("synth-gen", "train", "eval"), rep.get("command_s", ())):
            values[f"cli.{cmd}.s"] = wall
        per_rep.append(values)
    units = layer_units()
    out = {}
    for key in units:
        samples = [v[key] for v in per_rep if key in v]
        out[key] = (median(samples) if samples else 0.0, len(samples))
    walls_u = [r["wall_ref_s"] for r in untraced.reps if "error" not in r]
    walls_t = [r["wall_ref_s"] for r in traced.reps if "error" not in r]
    ratio = median(walls_t) / median(walls_u) if walls_u and walls_t else 0.0
    out["trace.overhead_ratio"] = (ratio, len(walls_t))
    out["trace.absent_bindings"] = (len(traced.absent), 1)
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description="fairrec benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--write-reference", action="store_true",
                   help="store this seed's outputs as the committed reference")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fairrec", "__init__.py")):
        print("error: run from the root of a fairrec checkout (src/fairrec not found)",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    name, seed = args.workload, args.seed
    workdir = os.path.join(root, OUT_DIR, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(root, workdir, started)
        checker = Checker(name, seed)
        probes = Measurement()
        for _ in range(SETUP_PROBES):
            result, _, _, setup, scale = runner.worker("probe")
            if result is None:
                print("error: fairrec failed to import", file=sys.stderr)
                return 2
            probes.add_process(result, setup, scale)
        ml_path = None
        if WORKLOADS[name].get("source") == "movielens":
            ml_path = os.path.join(workdir, "ml-1m")
            result, _, _, _, _ = runner.worker("inputs", name, str(seed), ml_path)
            if result is None:
                print("error: writing the ML-1M-layout inputs failed", file=sys.stderr)
                return 2

        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(runner, name, seed, seconds, False, ml_path)
        for k, rep in enumerate(untraced.reps):
            checker.check(rep, f"repetition {k}")
        if args.trace:
            traced = measure(runner, name, seed, seconds, True, ml_path)
            for k, rep in enumerate(traced.reps):
                checker.check(rep, f"traced repetition {k}")
            metrics = per_layer_metrics(name, untraced, traced)
            units = layer_units()
        else:
            metrics = end_to_end_metrics(untraced, checker, probes)
            units = END_TO_END_UNITS

        if args.write_reference and checker.failed == 0:
            workloads.store_reference(workloads.load_references(), name, seed,
                                      untraced.reps[0])

        failed_ratio = checker.failed / checker.attempted
        print(f"workload {name} seed {seed} trace {args.trace}")
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))
        for note in checker.notes:
            print(f"check: {note}")
        print(f"failed_ratio = {failed_ratio:.6g} ratio ({checker.failed} of "
              f"{checker.attempted} operations)")
        for key, (value, n) in metrics.items():
            print(f"{key} = {value:.6g} {units[key]} (median of {n})")
        raw_setups = probes.setup_s + untraced.setup_s
        print(f"unscaled: wall_s = {median(r['wall_s'] for r in untraced.reps):.6g} s, "
              f"setup_s = {median(raw_setups):.6g} s (medians; median host slowness "
              f"{median(c[0] for c in runner.calibrations):.4g})")
        record = {"workload": name, "seed": seed, "trace": args.trace,
                  "seconds": args.seconds, "environment": env,
                  "attempted": checker.attempted, "failed": checker.failed,
                  "notes": checker.notes,
                  "wall_s_samples": [r["wall_s"] for r in untraced.reps],
                  "wall_ref_s_samples": [r["wall_ref_s"] for r in untraced.reps],
                  "setup_s_samples": raw_setups,
                  "setup_ref_s_samples": probes.setup_ref_s + untraced.setup_ref_s,
                  "calibrations_s": runner.calibrations,
                  "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                              for k, (v, n) in metrics.items()}}
        with open(os.path.join(root, OUT_DIR, f"{name}-seed{seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(json.dumps({
            "correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
