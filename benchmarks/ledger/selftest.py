"""``python -m benchmarks.ledger --selftest``.

Every workload once at a tiny size (QUICK-scale CLI, 60-round sync runs,
20 queries) through the same code as the full run, then:

- ``BENCHMARK.json`` equals :func:`spec.benchmark_json` and fits the
  driver's limits;
- the ledger document has every end-to-end metric on every workload,
  ``failed_share`` 0, every per-layer metric of the spec produced by
  some workload's traced pass, and span self times + glue = traced wall;
- the correctness checks fire: a deliberately corrupted artifact and a
  forced ``AdmissionRejected`` must each raise ``failed`` above 0;
- ``compare`` calls a ledger unchanged against itself, regressed against
  a copy with one metric doubled — improved with the sides swapped — and
  unresolved, in both orders, when a side has too few samples to judge.
"""

from __future__ import annotations

import copy
import json
import re
import sys

from benchmarks.ledger import compare, ledger, proc, spec
from benchmarks.ledger.stats import summarize
from benchmarks.ledger.workloads import WORKLOADS, Context

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def contract_problems(doc: dict) -> list[str]:
    """Where ``doc`` breaks the driver's ``BENCHMARK.json`` limits."""
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    need(set(doc) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}, "top-level keys")
    need(1 <= len(doc["paths"]) <= 16
         and all(_PATH.match(p) and not p.startswith("/") and ".." not in p
                 for p in doc["paths"]), "paths")
    need(len(doc["command"]) <= 32
         and all(len(part) <= 200 for part in doc["command"]), "command")
    need(isinstance(doc["run_seconds"], int)
         and 1 <= doc["run_seconds"] <= 60, "run_seconds")
    need(2 <= len(doc["workloads"]) <= 8, "workload count")
    need(1 <= len(doc["end_to_end"]) <= 16, "end_to_end count")
    need(1 <= len(doc["per_layer"]) <= 128, "per_layer count")
    names = []
    for w in doc["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys {w}")
        need(len(w["why"]) <= 200 and "\n" not in w["why"],
             f"why of {w['name']}")
        names.append(w["name"])
    for m in doc["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m}")
        need(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    for m in doc["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"keys of {m}")
        names.append(m["name"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        need(bool(_UNIT.match(m["unit"])), f"unit of {m['name']}")
        need(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    need(all(_NAME.match(n) for n in names), "a name's characters")
    need(len(set(names)) == len(names), "a name used twice")
    need(any(m["name"] == "setup_s" and m["unit"] == "s"
             and m["better"] == "lower" for m in doc["end_to_end"]), "setup_s")
    need(len(json.dumps(doc, indent=2)) <= 64 * 1024, "file size")
    return problems


def ledger_problems(doc: dict) -> list[str]:
    problems = []
    produced: set[str] = set()
    for name in spec.WORKLOAD_NAMES:
        entry = doc["end_to_end"].get(name)
        if entry is None:
            problems.append(f"{name}: missing")
            continue
        if entry["failed_share"] != 0:
            problems.append(f"{name}: failed_share {entry['failed_share']}")
        for m in spec.END_TO_END:
            s = entry["metrics"].get(m.name, {})
            if not {"unit", "median", "q1", "q3", "n"} <= set(s) or not (
                    s["median"] > 0):
                problems.append(f"{name}.{m.name}: bad summary {s}")
        rows = doc["per_layer"].get(name, {})
        produced |= set(rows)
        identity = ledger.span_identity(rows)
        if identity is None:
            problems.append(f"{name}: no span accounting")
        elif (abs(identity["residual_s"]) > 1e-3 * identity["wall_s"]
              or identity["glue_share"] > 0.20):
            problems.append(f"{name}: span identity {identity}")
    missing = set(spec.PER_LAYER_NAMES) - produced
    if missing:
        problems.append(f"per-layer metrics never produced: {sorted(missing)}")
    unknown = produced - set(spec.PER_LAYER_NAMES)
    if unknown:
        problems.append(f"per-layer rows not in the spec: {sorted(unknown)}")
    return problems


def injected_failures(seed: int) -> dict[str, int]:
    """``failed`` counts under the two injected faults."""
    found = {}
    for name, inject in (("sweep_warm", "corrupt"), ("served_mixed", "reject")):
        with proc.WorkDir(f"selftest-{inject}") as work:
            ctx = Context(seed=seed, size="tiny", work=work)
            state = WORKLOADS[name].setup(ctx)
            ctx.inject = inject
            found[inject] = WORKLOADS[name].rep(ctx, state).failed
    return found


def _with_samples(doc: dict, workload: str, metric: str,
                  samples: list[float]) -> dict:
    """A copy of ``doc`` (marked calm) with one metric's samples replaced."""
    out = copy.deepcopy(doc)
    out["calibration"]["noisy"] = False
    out["end_to_end"][workload]["metrics"][metric].update(summarize(samples))
    return out


def compare_problems(doc: dict) -> list[str]:
    problems = []

    def word(a: dict, b: dict, workload: str, metric: str) -> str:
        text, _ = compare.compare(a, b)
        return next(line.split()[-1] for line in text.splitlines()
                    if line.split()[:2] == [workload, metric])

    _, status = compare.compare(doc, doc)
    if status != 0:
        problems.append("compare: a ledger regressed against itself")
    # Enough samples, tight, one side doubled: resolved in both orders.
    base = _with_samples(doc, "sync_batch", "wall_s", [0.99, 1.0, 1.01, 1.02])
    twice = _with_samples(doc, "sync_batch", "wall_s", [1.98, 2.0, 2.02, 2.04])
    if word(base, base, "sync_batch", "wall_s") != "unchanged":
        problems.append("compare: equal samples are not unchanged")
    if (word(base, twice, "sync_batch", "wall_s") != "regressed"
            or compare.compare(base, twice)[1] == 0):
        problems.append("compare: a doubled wall_s did not regress")
    if (word(twice, base, "sync_batch", "wall_s") != "improved"
            or compare.compare(twice, base)[1] != 0):
        problems.append("compare: a halved wall_s did not improve")
    # Two samples a side give no spread to judge by: never a verdict.
    few = _with_samples(doc, "served_mixed", "setup_s", [1.16, 1.17])
    more = _with_samples(doc, "served_mixed", "setup_s", [1.52, 1.53])
    for a, b in ((few, more), (more, few)):
        if word(a, b, "served_mixed", "setup_s") != "unresolved":
            problems.append("compare: judged a row on two samples a side")
    return problems


def main(seed: int = spec.DEFAULT_SEED) -> int:
    proc.require_program()
    problems = []
    written = json.loads((proc.ROOT / "BENCHMARK.json").read_text())
    if written != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from spec.benchmark_json()")
    problems += contract_problems(written)

    doc = ledger.run_ledger(seed, size="tiny")
    print(ledger.render(doc))
    problems += ledger_problems(doc)
    problems += compare_problems(doc)

    found = injected_failures(seed)
    for inject, failed in found.items():
        print(f"injected fault {inject!r}: failed = {failed}")
        if failed <= 0:
            problems.append(f"injected fault {inject!r} went undetected")

    for problem in problems:
        print(f"SELFTEST PROBLEM: {problem}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0
