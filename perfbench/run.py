"""gramconv benchmark: four seeded batch workloads, run in one process as a
closed loop with one client and one thread.

    python3 perfbench/run.py --workload converge-ladder --seed 7 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory and the fixtures are read from `tests/data/`.

Set-up (a fresh import of the package, input generation and fixture
loading) is timed SETUP_REPEATS times and reported as the median.  The
timed phase then runs the workload's batch in passes until `--seconds` have
passed.  Every operation is timed on its own; the outputs of the first pass
are checked against references the package did not produce, and every later
pass must reproduce their bytes exactly.

Every set-up and every operation is timed between two runs of the
calibration loop in `calibrate.py`, and the reported times are reference
times: wall time scaled to a host running at the loop's reference speed, in
the measure of the workload's host sensitivity.
The raw wall times are printed above the JSON line, with the host's speed.

With `--trace 1` half of the time runs untraced and half traced, the
per-layer metrics come from the traced passes, and the spans are written to
`.perfbench/spans-<workload>-<seed>.json`.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc as collector
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
MODULES = ("grammar", "interchange", "notation", "recovery", "transform",
           "mutate", "converge", "cli")


def fresh_import() -> SimpleNamespace:
    for name in [name for name in sys.modules
                 if name == "gramconv" or name.startswith("gramconv.")]:
        del sys.modules[name]
    package = importlib.import_module("gramconv")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gramconv was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"gramconv.{name}")
                              for name in MODULES})


class Pass:
    """One run through the batch: per operation its digest (None when it
    raised), plus totals."""

    def __init__(self) -> None:
        self.wall = 0.0  # reference seconds
        self.raw_wall = 0.0  # wall seconds
        self.rounds: list[float] = []  # calibration loop, seconds per round
        self.latencies: list[float] = []
        self.digests: list[str | None] = []
        self.errors: dict[int, str] = {}
        self.steps = 0
        self.prods = 0
        self.parts: dict[str, float] = {}
        self.outputs: list[tuple[int, dict]] = []
        self.layers: dict = {}


def run_pass(workload, keep_outputs: bool, tracer=None, number: int = 0) -> Pass:
    result = Pass()
    if tracer is not None:
        tracer.begin_pass()
    result.rounds.append(calibrate.round_s())
    timed: list[tuple[float, dict | None]] = []  # wall seconds, parts of a success
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.op, tracer.active = f"{number}:{index}", True
        error = None
        # every operation starts from an empty young generation, so the
        # collections it pays for are those its own allocations trigger
        collector.collect()
        started = time.perf_counter()
        try:
            output = workload.run(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            # keep the text only: the traceback of a deep recursion would
            # hold every frame alive and inflate peak_rss_mb pass by pass
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.active = False
        result.rounds.append(calibrate.round_s())
        if error is not None:
            result.errors[index] = error
            result.digests.append(None)
            timed.append((elapsed, None))
            continue
        out = workload.collect(item, output)
        timed.append((elapsed, out.get("parts", {})))
        result.digests.append(hashlib.sha256(out["bytes"]).hexdigest())
        result.steps += out["steps"]
        result.prods += workload.prods(item)
        if keep_outputs:
            result.outputs.append((index, out))
    factors = calibrate.factors(result.rounds, workload.HOST_SENSITIVITY)
    for (elapsed, parts), factor in zip(timed, factors):
        result.raw_wall += elapsed
        result.wall += elapsed * factor
        if parts is None:
            continue
        result.latencies.append(elapsed * factor)
        for key, value in parts.items():
            result.parts[key] = result.parts.get(key, 0.0) + value * factor
    if tracer is not None:
        result.layers = tracer.layers
    return result


def run_phase(workload, seconds: float, first: bool, tracer=None) -> list[Pass]:
    """Passes until `seconds` have gone by: a next pass starts only if no
    more than half of it, as long as the last one, would run past the end."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not passes or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        passes.append(run_pass(workload, first and not passes, tracer, len(passes)))
        last = time.perf_counter() - started
    return passes


def tally(workload, passes: list[Pass], baseline: Pass, wrong: dict[int, str]):
    """(attempted, failed, problems): an operation fails when it raised,
    when its first-pass output failed a check, or when its bytes differ
    from the first pass.  Problems are failures not known as defects."""
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        for index, digest in enumerate(p.digests):
            attempted += 1
            if digest is None:
                failed += 1
                if not workload.known_defect(workload.items[index]):
                    problems.append(f"item {index}: {p.errors[index]}")
            elif index in wrong:
                failed += 1
                problems.append(f"item {index}: {wrong[index]}")
            elif digest != baseline.digests[index]:
                failed += 1
                problems.append(f"item {index}: output bytes differ between passes")
    return attempted, failed, problems


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def end_to_end(passes: list[Pass], setup_s: float, attempted: int, failed: int) -> dict:
    latencies = sorted(t for p in passes for t in p.latencies)
    wall = sum(p.wall for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_ms.p50": (nearest_rank(latencies, 0.5) * 1000, "ms"),
        "op_ms.p90": (nearest_rank(latencies, 0.9) * 1000, "ms"),
        "throughput.prods_per_s": (sum(p.prods for p in passes) / wall, "prods/s"),
        "failed_ops.ratio": (failed / attempted, "ratio"),
        "trace_steps": (passes[0].steps, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# the end-to-end metrics named in BENCHMARK.json; failed_ops.ratio and
# trace_steps are printed above the JSON line only, because they are 0 on
# some workloads and their exact repetition is checked here instead
REPORTED = ("setup_s", "wall_s", "op_ms.p50", "op_ms.p90",
            "throughput.prods_per_s", "peak_rss_mb")


def show(workload: str, name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{workload:<17} {name:<40} {shown:>14} {unit:<8} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in (SRC / "gramconv" / "__init__.py", ROOT / "tests" / "data")
               if not path.exists()]
    if missing:
        print(f"perfbench: not a gramconv checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times, raw_setup_times, fingerprints, workload = [], [], set(), None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        collector.collect()
        before = calibrate.round_s()
        started = time.perf_counter()
        modules = fresh_import()
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, modules)
        elapsed = time.perf_counter() - started
        raw_setup_times.append(elapsed)
        setup_times.append(elapsed * calibrate.scale(before, calibrate.round_s()))
        fingerprints.add(workload.fingerprint())
    # the batch's inputs are the benchmark's, not the program's: frozen out of
    # the collector's reach, a collection during an operation costs what it
    # would cost a caller that holds only that operation's input
    collector.collect()
    collector.freeze()

    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_phase(workload, seconds, first=True)
        baseline = untraced[0]
        wrong = {}
        for index, out in baseline.outputs:
            problem = workload.check(workload.items[index], out)
            if problem is not None:
                wrong[index] = problem
        baseline.outputs = []
        traced, tracer = [], None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, seconds, first=False, tracer=tracer)
            finally:
                tracer.uninstall()
    finally:
        workload.close()

    attempted, failed, problems = tally(workload, untraced, baseline, wrong)
    metrics = end_to_end(untraced, statistics.median(setup_times), attempted, failed)
    traced_attempted, traced_failed, traced_problems = tally(workload, traced, baseline, wrong)
    attempted, failed = attempted + traced_attempted, failed + traced_failed
    problems += traced_problems
    if len(fingerprints) != 1:
        problems.append("set-up generated different inputs on different repetitions")
    if any(p.steps != baseline.steps for p in untraced + traced):
        problems.append("trace_steps differ between passes")

    name = args.workload
    samples = sum(len(p.latencies) for p in untraced)
    for metric, (value, unit) in metrics.items():
        note = ""
        if metric == "op_ms.p90":
            note = f"n={samples}, {samples - math.ceil(0.9 * samples)} beyond p90"
        elif metric == "wall_s":
            note = f"median of {len(untraced)} passes of {len(workload.items)} operations"
        show(name, metric, value, unit, note)
    show(name, "raw.setup_s", statistics.median(raw_setup_times), "s", "wall time")
    show(name, "raw.wall_s", statistics.median(p.raw_wall for p in untraced), "s",
         "wall time")
    rounds = sorted(r for p in untraced for r in p.rounds)
    show(name, "host.round_ms", statistics.median(rounds) * 1000, "ms",
         f"calibration loop, p10 {nearest_rank(rounds, 0.1) * 1000:.4g}"
         f" p90 {nearest_rank(rounds, 0.9) * 1000:.4g}; reference"
         f" {calibrate.REFERENCE_S * 1000:g}")
    for part in sorted(baseline.parts):
        show(name, f"parts.{part}", statistics.median(p.parts[part] for p in untraced),
             "s", "per pass, inside op time")
    outputs = hashlib.sha256("".join(d or "-" for d in baseline.digests).encode())
    show(name, "outputs.sha256", outputs.hexdigest()[:16], "", "equal across runs of a seed")

    if args.trace:
        layers, unstable = tracing.layer_metrics([p.layers for p in traced])
        problems += [f"{metric} differs between traced passes" for metric in unstable]
        ratio = statistics.median(p.wall for p in traced) / metrics["wall_s"][0]
        layers["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        for metric, entry in layers.items():
            show(name, metric, entry["value"], entry["unit"])
        self_s = {layer: statistics.median(p.layers.get(layer, {}).get("self_s", 0.0)
                                           for p in traced)
                  for layer in sorted({layer for p in traced for layer in p.layers})}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": name, "seed": args.seed, "passes": len(traced),
            "fields": ["layer", "start_s", "end_s", "parent", "op"],
            "spans": tracer.spans, "self_s": self_s,
        }) + "\n", encoding="utf-8")
        show(name, "spans", str(spans_path.relative_to(ROOT)), "",
             f"{len(tracer.spans)} spans")
        reported = layers
    else:
        reported = {metric: {"value": metrics[metric][0], "unit": metrics[metric][1]}
                    for metric in REPORTED}

    for problem in problems[:10]:
        print(f"{name}: FAILED {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
