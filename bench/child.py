"""One benchmark process: set-up, the reference values, a replay of the
request stream, or the route check.  run.py starts a fresh one for each
so that every replay pays its own imports and memory growth, as a CLI
process would.

    python3 bench/child.py setup  WORKDIR OUT [--trace]
    python3 bench/child.py expect WORKDIR OUT
    python3 bench/child.py replay WORKDIR OUT [--trace]
    python3 bench/child.py routes WORKDIR OUT

WORKDIR holds plan.json (and, after set-up, the input files); requests
run with WORKDIR as the current directory.  OUT receives the results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

#: Route-check timing: repeat each pair until both sides have this many
#: samples or have used this much time.
ROUTE_REPEATS = 3
ROUTE_BUDGET_S = 0.5

#: Speed calibration.  Other tenants share the host's cores, and the speed
#: of one fixed piece of Python code was seen to move by up to 60% within
#: seconds, in CPU time as much as in wall time.  A replay therefore runs a
#: fixed kernel before the first request and after each one, and scales
#: each request's latency by CAL_NOMINAL_S over the median kernel time of
#: the CAL_SIDE runs on either side of it: the request's time at a fixed
#: machine speed.  CAL_NOMINAL_S is about the kernel's median time on a
#: 2-CPU Xeon VM with Python 3.11.
CAL_NOMINAL_S = 0.0025
CAL_SIDE = 2
_CAL_N = 2300
#: A fixed tree for the kernel: vertex v > 0 hangs below a pseudo-random
#: earlier vertex.
_CAL_PARENT = [-1] + [(v * 2654435761 >> 7) % v for v in range(1, _CAL_N)]


def calibration_kernel() -> float:
    """Seconds to run fixed work shaped like the package's loops: build
    adjacency lists, walk them with a stack, and sum subtree rows of
    four counters bottom-up.  It shares no code with the package."""
    t0 = perf_counter()
    adj = [[] for _ in range(_CAL_N)]
    for v in range(1, _CAL_N):
        p = _CAL_PARENT[v]
        adj[p].append(v)
        adj[v].append(p)
    order, seen, stack = [], [False] * _CAL_N, [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    rows = [[1, 0, 0, 0] for _ in range(_CAL_N)]
    for v in reversed(order):
        p = _CAL_PARENT[v]
        if p >= 0:
            rp, rv = rows[p], rows[v]
            for i in range(3):
                rp[i + 1] += rv[i]
    return perf_counter() - t0


def at_nominal_speed(latency: list[float], cal: list[float]) -> list[float]:
    """Latencies scaled to the nominal machine speed; cal[i] is the kernel
    time just before request i (and cal[-1] the one after the last)."""
    return [t * CAL_NOMINAL_S / statistics.median(cal[max(0, i + 1 - CAL_SIDE):i + 1 + CAL_SIDE])
            for i, t in enumerate(latency)]


def _call(main, argv: list[str]) -> tuple[int | str, str, str, float]:
    """One in-process CLI request: exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an undocumented failure, recorded as such
            rc = f"exception: {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0


def setup(workdir: Path, traced: bool) -> dict:
    """Import, then generate and write the inputs.  Each step (the import
    with the first file, then every further file) is scaled to the nominal
    machine speed as a request is, with the kernel run between steps."""
    calibration_kernel()  # warm-up
    cal, steps = [calibration_kernel()], []
    t0 = perf_counter()
    import distindex  # noqa: F401  (import cost is part of set-up)
    import streams

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    plan = json.loads((workdir / "plan.json").read_text())
    for _ in streams.materialize(plan, workdir):
        steps.append(perf_counter() - t0)
        cal.append(calibration_kernel())
        t0 = perf_counter()
    steps.append(perf_counter() - t0)
    cal.append(calibration_kernel())
    result = {"setup_s": sum(at_nominal_speed(steps, cal)), "measured_s": sum(steps)}
    if tracer:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    return result


def expect(workdir: Path) -> dict:
    import reference

    plan = json.loads((workdir / "plan.json").read_text())
    return {"expected": reference.expectations(plan, workdir)}


def peak_rss_kib() -> int:
    """Peak resident set of this process's own address space (VmHWM).
    ru_maxrss is no use here: Linux carries the parent's peak across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def replay(workdir: Path, traced: bool) -> dict:
    from distindex import cli

    requests = json.loads((workdir / "plan.json").read_text())["requests"]
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    os.chdir(workdir)
    rcs, outs, errs, latency = [], [], [], []
    calibration_kernel()  # warm-up
    cal = [calibration_kernel()]
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
            sid = tracer.open(spans.REQUEST)
        rc, out, err, dt = _call(cli.main, req["argv"])
        if tracer:
            tracer.close(sid)
        rcs.append(rc)
        outs.append(out)
        errs.append(err)
        latency.append(dt)
        cal.append(calibration_kernel())
    result = {"wall_s": sum(latency), "latency_s": latency,
              "nominal_s": at_nominal_speed(latency, cal), "cal_s": statistics.median(cal),
              "rc": rcs, "stdout": outs, "stderr": errs, "rss_kib": peak_rss_kib()}
    if tracer:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    return result


def routes(workdir: Path) -> dict:
    """Time each auto request against its --method oracle twin, in turn."""
    from distindex import cli

    pairs = json.loads((workdir / "routes.json").read_text())
    os.chdir(workdir)
    rows = []
    for auto_argv, oracle_argv in pairs:
        times: dict[str, list[float]] = {"auto": [], "oracle": []}
        outs = {}
        while min(len(t) for t in times.values()) < ROUTE_REPEATS and \
                max(sum(t) for t in times.values()) < ROUTE_BUDGET_S:
            for side, argv in (("auto", auto_argv), ("oracle", oracle_argv)):
                rc, out, err, dt = _call(cli.main, argv)
                times[side].append(dt)
                outs[side] = (rc, out, err)
        rows.append({side: {"s": statistics.median(t), "rc": outs[side][0],
                            "stdout": outs[side][1], "stderr": outs[side][2]}
                     for side, t in times.items()})
    return {"pairs": rows}


def main() -> int:
    mode, workdir, out = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    traced = "--trace" in sys.argv[4:]
    if mode == "setup":
        result = setup(workdir, traced)
    elif mode == "expect":
        result = expect(workdir)
    elif mode == "replay":
        result = replay(workdir, traced)
    elif mode == "routes":
        result = routes(workdir)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
