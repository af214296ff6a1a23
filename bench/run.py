"""distindex benchmark: seeded request streams through the CLI.

    python3 bench/run.py --workload tree-stream|cube-stream|claim-scan
                         [--seed N] [--seconds S] [--trace 0|1]

For the workload the command builds its request stream from the seed, sets
up the inputs (import, generate and write every file) several times in
fresh processes, then replays the whole stream in a fresh child process,
one request at a time with a single client (a closed loop), repeating
the replay in new processes until --seconds (default: run_seconds of
BENCHMARK.json) is used.  Each request is ``distindex.cli.main(argv)``
run in-process with stdout captured, so its latency covers file read,
parse, the auto decision, compute and emit.
Times are reported at a nominal machine speed: a fixed calibration
kernel runs between requests, and each latency is scaled by how slow the
kernel ran around it (see child.py).  The measured times are printed too.
Every output is checked (see reference.py and check.py); any mismatch
makes the command exit 1.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced replays and prints the per-layer metrics,
the tracing overhead and the auto-versus-oracle route check, and writes
every span to .bench_work/trace-<workload>-s<seed>.json.  The last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

#: Seeds, fingerprint and the layer-to-metric map live in manifest.json;
#: the run length and the reported metrics with their units in BENCHMARK.json.
DEFAULT_SEED = json.loads((HERE / "manifest.json").read_text())["default_seed"]
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SECONDS = _BENCHMARK["run_seconds"]
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
#: Layer metrics reported in the result line: those every workload exercises.
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}
#: A workload run gives up after this long; a run must end within 180 s.
DEADLINE_S = 170
#: setup_s is the median of at least SETUP_REPEATS set-ups, repeated until
#: SETUP_BUDGET_S is used, so that a cheap set-up is sampled more often.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0
SETUP_MAX_REPEATS = 25
MAX_REPLAYS = 50
#: The tail percentile leaves this many requests of a replay beyond it.
TAIL_BEYOND = 10
#: Route check: auto requests whose input has n * m at most this (the
#: oracle's BFS work) are timed against --method oracle.
ROUTE_MAX_WORK = 2_000_000


class BenchError(Exception):
    """The benchmark itself could not run."""


def _check_checkout() -> None:
    for need in ("src/distindex/cli.py", "schema/report.json"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} not found under {ROOT}; run from a distindex checkout")


class Run:
    """One workload at one seed, in its own work directory."""

    def __init__(self, workload: str, seed: int, seconds: float):
        import streams

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.plan = streams.build(workload, seed)
        self.requests = self.plan["requests"]
        (self.workdir / "plan.json").write_text(json.dumps(self.plan))
        self.failures: list[str] = []
        self.attempted = 0

    def child(self, mode: str, traced: bool = False) -> dict:
        out = self.workdir / f"{mode}.out.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.workdir), str(out)]
        if traced:
            cmd.append("--trace")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{self.workload}: out of time before the {mode} step")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: {mode} step passed the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: {mode} step failed:\n{proc.stderr[-2000:]}")
        result = json.loads(out.read_text())
        out.unlink()
        return result

    def setup(self, traced: bool = False) -> list[dict]:
        if traced:
            return [self.child("setup", traced)]
        setups = []
        start = time.monotonic()
        while len(setups) < SETUP_REPEATS or (
                time.monotonic() - start < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPEATS):
            setups.append(self.child("setup"))
        return setups

    def expect(self) -> None:
        import check

        self.checker = check.Checker(ROOT)
        self.expected = self.child("expect")["expected"]

    def check(self, expect: dict, rc, stdout: str, stderr: str, label: str) -> None:
        self.attempted += 1
        why = self.checker.check(expect, rc, stdout, stderr)
        if why:
            self.failures.append(f"{label}: {why}")

    def replay(self, traced: bool) -> dict:
        res = self.child("replay", traced)
        for req, exp, rc, out, err in zip(self.requests, self.expected, res["rc"],
                                          res["stdout"], res["stderr"]):
            self.check(exp, rc, out, err, " ".join(req["argv"]))
        return res

    def replays(self, traced_too: bool) -> tuple[list[dict], list[dict]]:
        """Replays until the time is used: untraced only, or alternating
        untraced and traced.  Another round starts while at least half of
        one still fits.  Returns (untraced, traced) results."""
        plain, traced, rounds = [], [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            plain.append(self.replay(False))
            if traced_too:
                traced.append(self.replay(True))
            rounds.append(time.monotonic() - t0)
            used = time.monotonic() - start
            if used + statistics.median(rounds) / 2 > self.seconds or len(plain) >= MAX_REPLAYS:
                return plain, traced

    def route_pairs(self) -> list[tuple[int, list[str]]]:
        pairs = []
        for i, (req, exp) in enumerate(zip(self.requests, self.expected)):
            argv = req["argv"]
            if req["input"] is None or "--method" in argv or exp["rc"] != 0:
                continue
            doc = json.loads(exp["stdout"])
            if doc["method"] != "oracle" and doc["n"] * doc["m"] <= ROUTE_MAX_WORK:
                pairs.append((i, argv[:-1] + ["--method", "oracle", "--no-timing"]))
        return pairs

    def route_check(self) -> dict:
        """cli.auto_over_oracle: the route auto chose against the oracle."""
        pairs = self.route_pairs()
        if not pairs:
            return {}
        (self.workdir / "routes.json").write_text(json.dumps(
            [(self.requests[i]["argv"], oracle) for i, oracle in pairs]))
        rows = self.child("routes")["pairs"]
        by_route: dict[str, list[float]] = {}
        slower = 0
        for (i, oracle), row in zip(pairs, rows):
            exp = self.expected[i]
            auto_doc = json.loads(exp["stdout"])
            oracle_exp = dict(exp, stdout=exp["stdout"].replace(
                f'"method":"{auto_doc["method"]}"', '"method":"oracle"'))
            label = " ".join(self.requests[i]["argv"])
            self.check(exp, row["auto"]["rc"], row["auto"]["stdout"], row["auto"]["stderr"], label)
            self.check(oracle_exp, row["oracle"]["rc"], row["oracle"]["stdout"],
                       row["oracle"]["stderr"], label + " (oracle twin)")
            sums = by_route.setdefault(f'{auto_doc["index"]}/{auto_doc["method"]}', [0.0, 0.0, 0])
            sums[0] += row["auto"]["s"]
            sums[1] += row["oracle"]["s"]
            sums[2] += 1
            slower += row["auto"]["s"] > row["oracle"]["s"]
        auto_s = sum(v[0] for v in by_route.values())
        oracle_s = sum(v[1] for v in by_route.values())
        return {"ratio": auto_s / oracle_s, "auto_s": auto_s, "oracle_s": oracle_s,
                "requests": len(pairs), "auto_slower": slower,
                "by_route": {route: {"ratio": a / o, "auto_s": a, "oracle_s": o, "requests": c}
                             for route, (a, o, c) in sorted(by_route.items())}}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def tail_percentile(per_replay: int) -> float:
    """Percentile that leaves TAIL_BEYOND requests of a replay beyond it."""
    if per_replay <= TAIL_BEYOND:
        raise BenchError(f"a replay of {per_replay} requests has no tail percentile")
    return 100.0 * (per_replay - TAIL_BEYOND) / per_replay


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(run: Run, setups: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    import child

    per_replay = len(run.requests)
    pct = tail_percentile(per_replay)
    latencies = [t for res in plain for t in res["latency_s"]]
    nominal = [t for res in plain for t in res["nominal_s"]]
    metrics = {
        "stream_nominal_s": statistics.median(sum(res["nominal_s"]) for res in plain),
        "req_p50_nominal_ms": statistics.median(nominal) * 1000,
        "req_tail_nominal_ms": percentile(nominal, pct) * 1000,
        "peak_rss_mb": statistics.median(res["rss_kib"] for res in plain) / 1024,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setup_measured_s": statistics.median(s["measured_s"] for s in setups),
        "wall_s": statistics.median(res["wall_s"] for res in plain),
        "req_p50_ms": statistics.median(latencies) * 1000,
        "req_tail_ms": percentile(latencies, pct) * 1000,
        "cal_ms": statistics.median(res["cal_s"] for res in plain) * 1000,
    }
    samples = f"{len(latencies)} samples from {len(plain)} replays"
    tail = f"p{pct:.2f}, {TAIL_BEYOND} of {per_replay} requests per replay beyond it, {samples}"
    notes = {
        "stream_nominal_s": f"median over {len(plain)} replays of the summed nominal latencies",
        "req_p50_nominal_ms": samples,
        "req_tail_nominal_ms": tail,
        "wall_s": "measured, not scaled; median of the replays' summed latencies",
        "req_p50_ms": "measured, not scaled",
        "req_tail_ms": "measured, not scaled; " + tail,
        "cal_ms": f"median calibration kernel time; {child.CAL_NOMINAL_S * 1000:g} ms is the"
                  " nominal speed, more is a slower machine",
        "peak_rss_mb": "VmHWM of the replay process, median",
        "setup_s": f"median of {len(setups)} set-ups in fresh processes, at the nominal speed",
        "setup_measured_s": "measured, not scaled",
    }
    return metrics, notes


def layers(run: Run, setup: dict, plain: list[dict], traced: list[dict],
           routes: dict) -> tuple[dict, dict]:
    import spans

    metrics = spans.median_metrics([spans.layer_metrics(res["spans"], res["counters"],
                                                        run.requests) for res in traced])
    metrics.update(spans.setup_metrics(setup["spans"]))
    plain_wall = statistics.median(res["wall_s"] for res in plain)
    traced_wall = statistics.median(res["wall_s"] for res in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    notes = spans.bases(metrics)
    notes["trace.overhead_ratio"] = (f"traced {traced_wall:.3f} s / untraced {plain_wall:.3f} s,"
                                     f" medians of {len(traced)} and {len(plain)} replays")
    for name in metrics:
        how = spans.COUNTERS.get(name.rsplit(".", 1)[0] if name.startswith(spans.VERDICTS)
                                 else name)
        if how:
            notes[name] = how
    if routes:
        metrics["cli.auto_over_oracle"] = routes["ratio"]
        notes["cli.auto_over_oracle"] = (
            f"auto {routes['auto_s']:.4f} s / oracle {routes['oracle_s']:.4f} s over"
            f" {routes['requests']} requests, auto slower on {routes['auto_slower']}; " + ", ".join(
                f"{r}: {v['ratio']:.3f} ({v['auto_s']:.4f} s / {v['oracle_s']:.4f} s,"
                f" {v['requests']} requests)" for r, v in routes["by_route"].items()))
    return metrics, notes


def unit_of(name: str) -> str:
    known = {**END_TO_END, **PER_LAYER}
    if name in known:
        return known[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("ratio") or name == "cli.auto_over_oracle" else "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    try:
        setups = run.setup(traced=trace)
        run.expect()
        plain, traced = run.replays(traced_too=trace)
        if trace:
            routes = run.route_check()
            metrics, notes = layers(run, setups[0], plain, traced, routes)
            trace_file = ROOT / ".bench_work" / f"trace-{workload}-s{seed}.json"
            trace_file.write_text(json.dumps({
                "workload": workload, "seed": seed, "metrics": metrics, "notes": notes,
                "route_check": routes,
                "requests": [r["argv"] for r in run.requests],
                "span_fields": ["request", "id", "parent", "name", "start", "end", "tag"],
                "setup_spans": setups[0]["spans"], "spans": traced[0]["spans"],
            }))
            notes["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            metrics, notes = end_to_end(run, setups, plain)
        failures, attempted = list(run.failures), run.attempted
        replays = len(plain) + len(traced)
    finally:
        run.close()
    return {"workload": workload, "seed": seed, "metrics": metrics, "notes": notes,
            "attempted": attempted, "failures": failures, "replays": replays,
            "requests": len(run.requests)}


def report(res: dict, trace: bool) -> None:
    attempted, failed = res["attempted"], len(res["failures"])
    print(f"== {res['workload']}  seed={res['seed']}  replays={res['replays']}"
          f"  requests/replay={res['requests']}  (closed loop, 1 client)")
    names = sorted(res["metrics"]) if trace else list(res["metrics"])
    for name in names:
        value = res["metrics"][name]
        if trace and not value and name not in PER_LAYER:
            continue  # a layer this workload does not reach
        note = res["notes"].get(name)
        print(f"  {name:<34} {value:>14.6g} {unit_of(name):<6}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_ratio':<34} {failed / attempted if attempted else 0:>14.6g} {'-':<6}"
          f"  ({failed} of {attempted} requests wrong)")
    if trace:
        print(f"  trace written to {res['notes']['trace_file']}")
    for line in res["failures"][:20]:
        print(f"FAIL {line}", file=sys.stderr)


def main(argv=None) -> int:
    import streams

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(f"# python {platform.python_version()}, {os.cpu_count()} cpus, {platform.machine()}")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(res, bool(args.trace))
    metrics = {}
    for name, unit in (PER_LAYER if args.trace else END_TO_END).items():
        if name not in res["metrics"]:
            raise BenchError(f"{args.workload}: no measurement for {name}")
        metrics[name] = {"value": res["metrics"][name], "unit": unit}
    attempted, failed = res["attempted"], len(res["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        _check_checkout()
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
