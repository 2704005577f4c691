"""One fresh fairrec process of the benchmark.

    python3 worker.py RESULT_FILE probe
    python3 worker.py RESULT_FILE inputs WORKLOAD SEED DIRECTORY
    python3 worker.py RESULT_FILE rep REQUEST_JSON
    python3 worker.py RESULT_FILE cli TRACE FAIRREC_ARGS...

Every mode records when fairrec finished importing (``ready``, on the
system-wide monotonic clock, so the parent can subtract its spawn time), its
peak resident memory, and its spans when traced, and writes them as JSON to
RESULT_FILE. ``rep`` runs one repetition of a library workload and times it.
"""

import json
import os
import resource
import sys
import time
from dataclasses import replace

import fairrec
import fairrec.cli
from fairrec import ExperimentConfig, Hyperparams, parse_penalty, run_experiment

READY = time.monotonic()

import workloads  # noqa: E402  (benchmark module, imported after the clock read)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _experiment(name: str, seed: int, ml_path):
    """The run_experiment config of a workload; ml_path is set for MovieLens data."""
    w = workloads.WORKLOADS[name]
    base = Hyperparams()
    hyper = replace(base, iterations=w["iterations"], seed=seed,
                    alpha=w.get("alpha", base.alpha))
    config = ExperimentConfig(
        source=w.get("source", "synthetic"),
        regime=w.get("regime", "P+O"),
        num_users=w["users"], num_items=w["items"], ml_path=ml_path,
        hyper=hyper, penalties=tuple(parse_penalty(p) for p in w["penalties"]),
        trials=w["trials"], base_seed=seed)
    return config


def _count_items(sink: list) -> bool:
    """Record items_counted of every report the harness computes.

    Returns False when the harness no longer calls full_report through its
    own binding; the per-model check is then skipped, not failed.
    """
    original = getattr(fairrec.harness, "full_report", None)
    if original is None:
        return False

    def counting(*args, **kwargs):
        report = original(*args, **kwargs)
        sink.append(report.items_counted)
        return report

    fairrec.harness.full_report = counting
    return True


def run_rep(request: dict) -> dict:
    name, seed = request["workload"], request["seed"]
    os.environ["FAIRREC_THREADS"] = str(workloads.WORKLOADS[name]["threads"])
    config = _experiment(name, seed, request.get("ml_path"))
    counted = []
    counting = _count_items(counted)
    recorder = None
    if request["trace"]:
        import tracer
        recorder = tracer.Recorder()
        recorder.install()
    start = time.perf_counter()
    try:
        table = run_experiment(config)
    except Exception as exc:  # a failed repetition is counted, not fatal
        rep = {"error": f"{type(exc).__name__}: {exc}"}
        rep["wall_s"] = time.perf_counter() - start
    else:
        rep = {"wall_s": time.perf_counter() - start,
               "result": workloads.table_to_json(table, counted if counting else None)}
    rep["spans"] = recorder.spans if recorder else []
    return {"rep": rep, "absent": recorder.absent if recorder else []}


def run_cli(trace: bool, argv: list) -> dict:
    recorder = None
    if trace:
        import tracer
        recorder = tracer.Recorder(trial=argv[0])
        recorder.install()
    code = fairrec.cli.main(argv)
    sys.stdout.flush()
    return {"exit_code": code, "spans": recorder.spans if recorder else [],
            "absent": recorder.absent if recorder else []}


def main(argv) -> int:
    result_file, mode, rest = argv[0], argv[1], argv[2:]
    code = 0
    if mode == "probe":
        result = {}
    elif mode == "inputs":
        name, seed, directory = rest
        w = workloads.WORKLOADS[name]
        result = {"ratings": workloads.write_ml1m(directory, int(seed), w["users"], w["items"])}
    elif mode == "rep":
        result = run_rep(json.loads(rest[0]))
    elif mode == "cli":
        result = run_cli(rest[0] == "1", rest[1:])
        code = result["exit_code"]
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    result.update(ready=READY, peak_rss_kb=_peak_rss_kb(),
                  fairrec_file=os.path.abspath(fairrec.__file__))
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
