"""The tgmenger solver benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the workload's inputs from the
seed, then makes passes over its call list until ``--seconds`` have gone by
(at least ``MIN_PASSES``).  Each pass runs in a fresh interpreter
(``worker.py``), one call after the other: a single caller in a closed
loop, never passing ``threads``.  Every outcome is checked by the
correctness gate (``verify.py``) after the timed loop.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics, the tracing overhead among
them.  The full report, with the digest, environment and the layer metrics
marked absent, is written to ``perfbench/out/``.

``--write-pins`` records the per-call answer hashes of this seed under
``perfbench/pins/``; later runs of a pinned seed must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINS = HERE / "pins"

MIN_PASSES = 3
SETUPS = 3
PASS_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Every pass runs with this string-hash seed.  The gadgets name vertices
# with strings, and set iteration order decides which branch a cut engine
# tries first: one gadget-sweep pass's cut calls took from 1.8 s to 2.7 s
# across hash seeds.  With the seed fixed, a pass's work depends on the
# workload seed alone.
HASH_SEED = "0"


def import_package() -> None:
    """Import ``tgmenger`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "tgmenger" / "__init__.py").is_file():
        raise SystemExit(f"error: no tgmenger sources under {src}")
    sys.path.insert(0, str(src))
    import tgmenger

    if Path(tgmenger.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: imported tgmenger from {tgmenger.__file__}, not {src}")


def environment(seed: int) -> dict:
    import networkx

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def tail_percentile(calls_per_pass: int) -> float:
    """Highest percentile of the ladder with at least ten calls beyond it
    in the fewest calls a run makes (``MIN_PASSES`` passes).  Fixed by the
    workload, not by how many passes happen to fit in the run."""
    n = calls_per_pass * MIN_PASSES
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return p
    raise SystemExit(f"error: {n} calls are too few for a tail percentile")


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def run_worker(payload: bytes) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=payload,
            capture_output=True,
            timeout=PASS_TIMEOUT_S,
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: a pass took longer than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return pickle.loads(proc.stdout)


def build(make_steps, seed: int, tracer=None):
    """Build the inputs ``SETUPS`` times (fresh objects each time); returns
    the last build, every build's time and, when traced, every build's
    layer summary."""
    times = []
    summaries = []
    steps = None
    for _ in range(SETUPS):
        if tracer is not None:
            tracer.begin_call("setup")
        t0 = time.perf_counter()
        steps = make_steps(seed)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_call()
            summaries.append(tracer.summary())
            tracer.spans.clear()
    return steps, times, summaries


def layer_metrics(per_pass: list, setups: list, absent: list) -> tuple:
    """Per-layer metrics: medians over the traced passes of per-pass sums
    (calls) plus, for set-up layers, medians over the traced set-ups.
    Returns ``({name: (value, unit)}, names of absent metrics)``."""
    empty = {"calls": 0, "self_s": 0.0, "extra": []}

    def med(fn, source=per_pass):
        values = [fn(summary) for summary in source]
        return statistics.median(values) if values else 0.0

    def calls(name):
        return med(lambda s: s.get(name, empty)["calls"])

    def self_s(name, source=per_pass):
        return med(lambda s: s.get(name, empty)["self_s"], source)

    def extras(summary, name):
        return summary.get(name, empty)["extra"]

    def ratio(num, den):
        return num / den if den else 0.0

    def engine(which, field):
        def read(summary):
            rows = [(d, e) for d, e in extras(summary, "cuts") if e[0] == which]
            seconds = sum(d for d, _ in rows)
            checked = sum(e[1] for _, e in rows)
            return {
                "calls": len(rows),
                "s": seconds,
                "subsets": checked,
                "us_per_subset": 1e6 * ratio(seconds, checked),
                "ratio": ratio(checked, sum(e[2] for _, e in rows)),
            }[field]

        return med(read)

    def total(name, index, per_call=False):
        def read(summary):
            rows = extras(summary, name)
            value = sum(e[index] if isinstance(e, tuple) else e for _, e in rows)
            return ratio(value, len(rows)) if per_call else value

        return med(read)

    paths_ratio = med(
        lambda s: ratio(sum(e[0] for _, e in extras(s, "paths")), sum(e[2] for _, e in extras(s, "paths")))
    )
    m = {
        "core.reachable.calls": (calls("core.reachable"), "count", "core.reachable"),
        "core.reachable.s": (self_s("core.reachable"), "s", "core.reachable"),
        "core.graph_builds": (calls("core.graph_build"), "count", "core.graph_build"),
        "core.graph_build.s": (self_s("core.graph_build"), "s", "core.graph_build"),
        "core.sweeps.calls": (calls("core.sweeps"), "count", "core.sweeps"),
        "core.sweeps.s": (self_s("core.sweeps"), "s", "core.sweeps"),
        "core.enumerate_paths.calls": (calls("core.enumerate_paths"), "count", "core.enumerate_paths"),
        "core.enumerate_paths.s": (self_s("core.enumerate_paths"), "s", "core.enumerate_paths"),
        "core.paths_enumerated": (total("core.enumerate_paths", 0), "count", "core.enumerate_paths"),
        "core.minor_match.calls": (calls("core.minor_match"), "count", "core.minor_match"),
        "core.minor_match.s": (self_s("core.minor_match"), "s", "core.minor_match"),
        "core.canonical_form.s": (
            self_s("core.canonical_form", setups) + self_s("core.canonical_form"),
            "s",
            "core.canonical_form",
        ),
        "cuts.calls": (calls("cuts"), "count", "cuts"),
        "cuts.s": (self_s("cuts"), "s", "cuts"),
        "cuts.candidates.s": (self_s("cuts.candidates"), "s", "cuts.candidates"),
        "cuts.enumeration.calls": (engine("enumeration", "calls"), "count", "cuts"),
        "cuts.enumeration.s": (engine("enumeration", "s"), "s", "cuts"),
        "cuts.enumeration.subsets": (engine("enumeration", "subsets"), "count", "cuts"),
        "cuts.enumeration.us_per_subset": (engine("enumeration", "us_per_subset"), "us", "cuts"),
        "cuts.hitting.calls": (engine("hitting", "calls"), "count", "cuts"),
        "cuts.hitting.s": (engine("hitting", "s"), "s", "cuts"),
        "cuts.hitting.nodes": (engine("hitting", "subsets"), "count", "cuts"),
        "cuts.checked_over_bound.enumeration": (engine("enumeration", "ratio"), "1", "cuts"),
        "cuts.checked_over_bound.hitting": (engine("hitting", "ratio"), "1", "cuts"),
        "paths.calls": (calls("paths"), "count", "paths"),
        "paths.s": (self_s("paths"), "s", "paths"),
        "paths.product_build.s": (self_s("paths.product_build"), "s", "paths.product_build"),
        "paths.tuples": (total("paths", 0), "count", "paths"),
        "paths.arcs": (total("paths", 1), "count", "paths"),
        "paths.tuples_over_bound": (paths_ratio, "1", "paths"),
        "flow.calls": (calls("flow"), "count", "flow"),
        "flow.s": (self_s("flow"), "s", "flow"),
        "flow.maxflow.calls": (calls("flow.maxflow"), "count", "flow.maxflow"),
        "flow.maxflow.s": (self_s("flow.maxflow"), "s", "flow.maxflow"),
        "flow.mincut.calls": (calls("flow.mincut"), "count", "flow.mincut"),
        "flow.mincut.s": (self_s("flow.mincut"), "s", "flow.mincut"),
        "flow.network.nodes": (total("flow.maxflow", 0, per_call=True), "count", "flow.maxflow"),
        "flow.network.arcs": (total("flow.maxflow", 1, per_call=True), "count", "flow.maxflow"),
        "mengerian.recognize.calls": (calls("mengerian.recognize"), "count", "mengerian.recognize"),
        "mengerian.recognize.s": (self_s("mengerian.recognize"), "s", "mengerian.recognize"),
        "mengerian.rejected": (total("mengerian.recognize", 0), "count", "mengerian.recognize"),
        "mengerian.lift.s": (self_s("mengerian.lift"), "s", "mengerian.lift"),
        "oracles.semantic.calls": (calls("oracles.semantic"), "count", "oracles.semantic"),
        "oracles.semantic.s": (self_s("oracles.semantic"), "s", "oracles.semantic"),
        "gadgets.build.s": (self_s("gadgets.build", setups), "s", "gadgets.build"),
    }
    gone = sorted(name for name, (_v, _u, span) in m.items() if span in absent)
    return {name: (0 if name in gone else v, unit) for name, (v, unit, _span) in m.items()}, gone


def run_passes(calls, seconds: float, trace: bool, spans_file: str) -> list:
    """Passes until ``seconds`` have gone by and there are at least
    ``MIN_PASSES`` untraced ones (and as many traced ones when tracing).
    Returns ``[(traced, worker report)]``; only the first traced pass
    writes its spans.

    When tracing, passes come in untraced/traced pairs whose order
    alternates (U T, T U, U T, ...), so a drift of the machine's speed
    over the run does not favour the same side in every pair."""
    def payload(spans):
        return pickle.dumps((calls, spans), protocol=pickle.HIGHEST_PROTOCOL)

    untraced = payload(None)
    first_traced, traced = payload(spans_file), payload("")
    passes = []
    started = time.perf_counter()
    while True:
        i = len(passes)
        n_traced = sum(1 for t, _ in passes if t)
        if not (trace and i % 2):
            enough = i - n_traced >= MIN_PASSES
            if enough and time.perf_counter() - started >= seconds:
                return passes
        if trace and (i % 2 == 0) == (i // 2 % 2 == 1):
            passes.append((True, run_worker(traced if n_traced else first_traced)))
        else:
            passes.append((False, run_worker(untraced)))


def judge(gate, passes, pinned) -> dict:
    """Run the correctness gate on every pass.  The first pass is checked
    in full; a later pass's call is checked again only where its outcome
    differs from the first pass's.  With ``pinned`` answer hashes, a call
    whose hash differs fails too."""
    import verify

    steps = gate.steps
    first = passes[0][1]["outcomes"]
    t0 = time.perf_counter()
    problems = gate.check(first)
    verify_s = time.perf_counter() - t0
    prints = [verify.fingerprint(o) for o in first]
    attempted = failed = 0
    failures = []
    digests = []
    for index, (_traced, report) in enumerate(passes):
        outcomes = report["outcomes"]
        verdicts = problems
        if index:
            same = [verify.fingerprint(o) == fp for o, fp in zip(outcomes, prints)]
            if not all(same):
                recheck = gate.check(outcomes)
                verdicts = [p if ok else r for p, ok, r in zip(problems, same, recheck)]
        hashes = verify.step_digests(steps, outcomes)
        digests.append(verify.digest(hashes))
        for i, problem in enumerate(verdicts):
            if problem is None and pinned is not None and (i >= len(pinned) or hashes[i] != pinned[i]):
                problem = "answer differs from the pinned digest"
            attempted += 1
            if problem is not None:
                failed += 1
                if len(failures) < 20:
                    failures.append({"pass": index, "call": i, "kind": steps[i].kind, "problem": problem})
        if index == 0:
            first_hashes = hashes
    pins_match = pinned is None or len(pinned) == len(steps)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "correct": failed == 0 and len(set(digests)) == 1 and pins_match,
        "hashes": first_hashes,
        "verify_s": verify_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=170043)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, str(HERE))
    import tracing
    import verify
    import workloads

    make_steps = workloads.WORKLOADS.get(args.workload)
    if make_steps is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")

    setup_tracer = tracing.Tracer() if args.trace else None
    if setup_tracer is not None:
        setup_tracer.install()
    steps, setup_times, setup_layers = build(make_steps, args.seed, setup_tracer)
    if setup_tracer is not None:
        setup_tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    passes = run_passes(
        [(s.kind, s.args) for s in steps],
        args.seconds,
        bool(args.trace),
        str(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"),
    )

    pin_file = PINS / f"{args.workload}-seed{args.seed}.txt"
    pinned = pin_file.read_text(encoding="utf-8").split() if pin_file.is_file() and not args.write_pins else None
    verdict = judge(verify.Gate(steps), passes, pinned)
    if args.write_pins:
        if not verdict["correct"]:
            raise SystemExit("error: refusing to pin answers that fail the correctness gate")
        PINS.mkdir(exist_ok=True)
        pin_file.write_text("\n".join(verdict["hashes"]) + "\n", encoding="utf-8")

    plain = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    latencies = [o[1] for r in plain for o in r["outcomes"]]
    tail_p = tail_percentile(len(steps))
    wall_s = statistics.median(r["wall_s"] for r in plain)
    end_to_end = {
        "setup_s": (statistics.median(r["import_s"] for _t, r in passes) + statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "call_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "call_tail_ms": (1000 * percentile(latencies, tail_p), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
    }
    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "calls_per_pass": len(steps),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": [round(r["wall_s"], 4) for _t, r in passes],
        "samples": len(latencies),
        "tail_percentile": tail_p,
        "setup_builds_s": setup_times,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "failed_ratio": verdict["failed"] / verdict["attempted"],
        "failures": verdict["failures"],
        "digest": verdict["digest"],
        "digests_agree": verdict["digests_agree"],
        "pinned": pinned is not None,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    metrics = end_to_end
    if args.trace:
        absent = sorted(set(traced[0]["absent"]) | set(setup_tracer.absent))
        metrics, gone = layer_metrics([r["layers"] for r in traced], setup_layers, absent)
        metrics["bench.verify.s"] = (verdict["verify_s"], "s")
        # The k-th untraced and k-th traced passes are adjacent (see
        # run_passes); the median of the pairs' differences is less moved
        # by the drift of the machine's speed than a difference of medians.
        overheads = [t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)]
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["absent"] = gone
        report["absent_hooks"] = absent
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    summary_keys = ("workload", "digest", "calls_per_pass", "passes", "samples", "tail_percentile", "failed_ratio")
    print(json.dumps({k: report[k] for k in summary_keys}))
    for failure in verdict["failures"][:5]:
        print("FAILED", json.dumps(failure, default=str))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
