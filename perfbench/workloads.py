"""Workload definitions, the ML-1M-layout input writer, and output checks.

This module imports no fairrec code at load time, so the benchmark's parent
process can use it without paying fairrec's import cost.
"""

from __future__ import annotations

import json
import math
import os

DEFAULT_PENALTIES = ("none", "value", "absolute", "under", "over", "parity",
                     "under:2+over")
METRIC_FIELDS = ("error", "value", "absolute", "under", "over", "parity")

# The problem shapes are the paper's (400 x 300) and a MovieLens-like scale
# (3000 x 1005, about 0.9M ratings). Trials and iterations are shortened so
# that one repetition takes seconds instead of minutes.
WORKLOADS = {
    "table1-paper": {
        "entry": "run_experiment", "regime": "P+O", "users": 400, "items": 300,
        "penalties": DEFAULT_PENALTIES, "trials": 2, "iterations": 8,
        "threads": 1,
    },
    # run_experiment caches the parsed MovieLens files per path; every
    # repetition runs in a fresh process, so each parses them again, as each
    # reproduce-table2 command does.
    "table2-mlscale": {
        "entry": "run_experiment", "source": "movielens", "users": 3000, "items": 1005,
        "penalties": ("none", "value"), "trials": 1, "iterations": 2,
        "alpha": 0.1, "threads": 1,
    },
    "cli-files": {
        "entry": "cli", "regime": "P+O", "users": 3000, "items": 1005,
        "penalties": ("value",), "iterations": 1, "threads": 1,
    },
}

# Relative and absolute tolerance against the committed references. Summing
# the gradient scatters in reverse order moved the results by at most 1.4e-13
# relative; a wrong gradient (swapped factor rows in the scatter, or a flipped
# sign in one group's penalty term) moved them by 1.3e-2 or more.
REL_TOL = 1e-7
ABS_TOL = 1e-9

# Genres per generated item group. Most items carry a genre from the default
# selection (Action, Crime, Musical, Romance, Sci-Fi); every tenth item gets
# only unselected genres, so the default filter keeps 90% of the items.
ML_GENRES = {"Fem": "Romance|Musical", "STEM": "Sci-Fi|Adventure",
             "Masc": "Action|Crime"}
ML_DROPPED_GENRES = "Comedy|Drama"


def operations_per_rep(name: str) -> int:
    w = WORKLOADS[name]
    if w["entry"] == "cli":
        return 3
    return len(w["penalties"]) * w["trials"]


def cli_commands(name: str, seed: int, workdir: str) -> list:
    """The three commands of the cli-files workload, as a user runs them."""
    w = WORKLOADS[name]
    data = os.path.join(workdir, "data.txt")
    model = os.path.join(workdir, "model.txt")
    return [
        ["synth-gen", "--regime", w["regime"], "--users", str(w["users"]),
         "--items", str(w["items"]), "--seed", str(seed), "--out", data],
        ["train", "--data", data, "--penalty", w["penalties"][0],
         "--iterations", str(w["iterations"]), "--seed", str(seed), "--out", model],
        ["eval", "--model", model, "--data", data],
    ]


def write_ml1m(directory: str, seed: int, users: int, items: int) -> int:
    """Write users.dat, movies.dat and ratings.dat from one generated dataset.

    Gender is F for protected users. A like becomes a rating of 4 or 5, a
    dislike 1, 2 or 3, drawn from a generator seeded with ``seed``. Returns
    the number of rating lines.
    """
    import numpy as np
    from fairrec import RegimeConfig, generate

    data, _ = generate(RegimeConfig("P+O", users, items, seed))
    rng = np.random.default_rng([seed, 1])
    k = data.num_ratings
    stars = np.where(data.values > 0, rng.integers(4, 6, k), rng.integers(1, 4, k))
    stamps = 978300000 + rng.integers(0, 10**6, k)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "users.dat"), "w", encoding="latin-1") as fh:
        fh.writelines(f"{u + 1}::{'F' if p else 'M'}::25::0::00000\n"
                      for u, p in enumerate(data.protected.tolist()))
    with open(os.path.join(directory, "movies.dat"), "w", encoding="latin-1") as fh:
        fh.writelines(
            f"{i + 1}::Movie {i + 1} (2000)::"
            f"{ML_DROPPED_GENRES if i % 10 == 9 else ML_GENRES[g]}\n"
            for i, g in enumerate(data.item_group))
    with open(os.path.join(directory, "ratings.dat"), "w", encoding="latin-1") as fh:
        fh.writelines(f"{u + 1}::{i + 1}::{s}::{t}\n" for u, i, s, t in zip(
            data.user_idx.tolist(), data.item_idx.tolist(), stars.tolist(),
            stamps.tolist()))
    return k


def table_to_json(table, items_counted) -> dict:
    """A result table as JSON; items_counted is one count per model, or None."""
    return {"rows": list(table.rows), "means": table.means.tolist(),
            "stderrs": table.stderrs.tolist(),
            "items_counted": None if items_counted is None else list(items_counted)}


def parse_cli_output(stdouts) -> dict:
    """key=value pairs printed by the three commands, merged."""
    out = {}
    for text in stdouts:
        for token in text.split():
            key, sep, value = token.partition("=")
            if sep:
                out[key] = value
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def check_table(name: str, result: dict, reference) -> dict:
    """Failed trial count per expected row: 0 when the row passes, else trials.

    A row passes when it is present, every mean and standard error is
    finite, every evaluated model counted at least one item (when the counts
    could be recorded), and, when a reference is given, every value matches
    it within the tolerance.
    """
    w = WORKLOADS[name]
    rows = list(w["penalties"])
    trials = w["trials"]
    counted = result["items_counted"]
    models_ok = counted is None or (len(counted) == len(rows) * trials
                                    and all(c > 0 for c in counted))
    failed = {}
    for row in rows:
        ok = models_ok and row in result["rows"]
        if ok:
            r = result["rows"].index(row)
            values = result["means"][r] + result["stderrs"][r]
            ok = len(values) == 2 * len(METRIC_FIELDS) and all(map(math.isfinite, values))
            if ok and reference is not None:
                ref_r = reference["rows"].index(row)
                ref_values = reference["means"][ref_r] + reference["stderrs"][ref_r]
                ok = all(map(_close, values, ref_values))
        failed[row] = 0 if ok else trials
    return failed


def check_cli(name: str, result: dict, reference) -> list:
    """Pass flags for synth-gen, train and eval from their printed output."""
    w = WORKLOADS[name]
    out = result["output"]
    codes = result["exit_codes"]

    def finite(key):
        try:
            return math.isfinite(float(out[key]))
        except (KeyError, ValueError):
            return False

    gen_ok = (codes[0] == 0 and out.get("users") == str(w["users"])
              and out.get("items") == str(w["items"]) and int(out.get("ratings", 0)) > 0)
    train_ok = codes[1] == 0 and finite("objective") and finite("penalty")
    eval_ok = (codes[2] == 0 and all(finite(f) for f in METRIC_FIELDS)
               and int(out.get("items_counted", 0)) > 0)
    if eval_ok and reference is not None:
        eval_ok = (out["items_counted"] == reference["items_counted"]
                   and all(_close(float(out[f]), float(reference[f]))
                           for f in METRIC_FIELDS))
    return [gen_ok, train_ok, eval_ok]


def comparable_result(name: str, result: dict) -> dict:
    """The part of a result that every repetition, traced or not, must repeat exactly."""
    if WORKLOADS[name]["entry"] == "cli":
        keys = ("objective", "penalty", "items_counted") + METRIC_FIELDS
        return {k: result["output"].get(k) for k in keys}
    return result


REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(references: dict, name: str, seed: int):
    """The committed reference for this workload and seed, or None.

    A reference made with other workload parameters is not comparable, so a
    change to WORKLOADS without new references fails loudly.
    """
    entry = references.get(name)
    if entry is None or str(seed) not in entry["seeds"]:
        return None
    if entry["params"] != json.loads(json.dumps(WORKLOADS[name])):
        raise ValueError(f"references for {name} were made with other parameters; "
                         "rerun with --write-reference")
    return entry["seeds"][str(seed)]


def store_reference(references: dict, name: str, seed: int, rep: dict) -> None:
    entry = references.setdefault(name, {"params": WORKLOADS[name], "seeds": {}})
    entry["params"] = WORKLOADS[name]
    entry["seeds"][str(seed)] = (rep["output"] if WORKLOADS[name]["entry"] == "cli"
                                 else rep["result"])
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
