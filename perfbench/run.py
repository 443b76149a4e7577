"""totalcolour benchmark: construct-and-certify, re-verify and oracle workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a fixed list of ops ("a pass"), driven in-process through
``totalcolour.cli.main`` and ``totalcolour.certify_construction`` as a closed
loop with one op in flight.  A run repeats whole passes for about
``--seconds`` (at least MIN_PASSES) and checks every op's output.  Every
latency is rescaled to a reference host speed (see Speedometer).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.
``--workload all`` runs each workload in its own fresh process.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "reverify", "oracle")
SETUP_REPEATS = 3  # input generations; setup_s takes the median
IMPORT_REPEATS = 7  # imports in a fresh interpreter; setup_s adds their median
MIN_PASSES = 3
TAIL_SHARE = 0.1  # op_tail_ms averages the slowest tenth of the ops; see tail()
CAL_REF_S = 0.0002  # one calibration slice at reference speed (the 2-core VM's median)
CAL_WINDOW_S = 0.01  # calibration slices run this long between two ops
CAL_TICK_S = 0.02  # and one slice runs at this interval inside an op


def commit() -> str:
    """The checkout's commit if it is a git work tree, else "unknown"."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit(),
    }


class Speedometer:
    """Host speed, sampled by a fixed pure-Python slice around and inside ops.

    A shared host runs this process 20-40 % slower or faster from one
    second to the next, and cpu time slows down with wall time.  So the
    speed is sampled while an op runs, and its latency is rescaled to the
    speed at which one slice takes CAL_REF_S.  Slices run for CAL_WINDOW_S
    between ops, and every CAL_TICK_S inside one from a SIGALRM handler,
    whose time is taken out of the op's latency.  A slice is list indexing
    and int arithmetic over the edges of K72.  It allocates no containers,
    so it does not move the program's garbage collection, and it runs no
    totalcolour code, so a change to the program does not move it.
    """

    def __init__(self) -> None:
        self.edges = [(u, v) for u in range(72) for v in range(u)]
        self.colours = [7 * v % 20 for v in range(72)]
        self.spent = 0.0  # wall time of every slice so far, with its overhead
        self.ticks = [0, 0.0, 0.0]  # inside the current op: slices, their time, handler time
        # Installed for good: a tick that is already pending when the timer
        # stops still finds its handler.
        signal.signal(signal.SIGALRM, self._tick)

    def slice(self) -> float:
        start = time.perf_counter()
        total, colours = 0, self.colours
        for u, v in self.edges:
            total += colours[u] ^ colours[v]
        return time.perf_counter() - start

    def window(self) -> tuple[int, float]:
        """Slices for CAL_WINDOW_S: (slices, their time)."""
        slices, busy, start = 0, 0.0, time.perf_counter()
        while time.perf_counter() - start < CAL_WINDOW_S:
            busy += self.slice()
            slices += 1
        self.spent += time.perf_counter() - start
        return slices, busy

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        took = self.slice()
        self.ticks[0] += 1
        self.ticks[1] += took
        self.ticks[2] += time.perf_counter() - start

    def timed(self, call: Callable[[], Any], sample: bool) -> tuple[Any, float, tuple[int, float]]:
        """Run ``call``: (its result or exception, latency, slices inside it).

        The latency leaves out the time of the slices run inside the call.
        """
        self.ticks = [0, 0.0, 0.0]
        if sample:
            signal.setitimer(signal.ITIMER_REAL, CAL_TICK_S, CAL_TICK_S)
        start = time.perf_counter()
        try:
            outcome = call()
        except (Exception, SystemExit) as exc:  # counted, never skipped
            outcome = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start - self.ticks[2]
        self.spent += self.ticks[2]
        return outcome, latency, (self.ticks[0], self.ticks[1])

    @staticmethod
    def scale(*samples: tuple[int, float]) -> float:
        """Factor that takes a latency sampled by ``samples`` to reference speed."""
        return CAL_REF_S * sum(n for n, _ in samples) / sum(t for _, t in samples)


def measure(ops, seconds: float, min_passes: int, speed: Speedometer, tracer=None,
            sample: bool = True) -> dict:
    """Repeat whole passes: at least ``min_passes``, then while another fits.

    Latencies are rescaled to reference host speed (see Speedometer).  Per
    op, ``latencies`` holds the passing runs, ``spent`` every run, and
    ``raw_spent`` every run unscaled.  ``wall_s`` leaves the calibration
    windows out, and a pass's ``norm_s`` is the rescaled time of its ops.
    """
    passes, failures = [], []
    latencies: list[list[float]] = [[] for _ in ops]
    spent: list[list[float]] = [[] for _ in ops]
    raw_spent: list[list[float]] = [[] for _ in ops]
    start, spent0 = time.perf_counter(), speed.spent
    while True:
        t_pass, spent_pass = time.perf_counter(), speed.spent
        done = elements = exact = lower = upper = 0
        norm_s = 0.0
        before = speed.window()
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            outcome, latency, inside = speed.timed(op.call, sample)
            after = speed.window()
            scaled = latency * Speedometer.scale(before, inside, after)
            before = after
            norm_s += scaled
            spent[op_id].append(scaled)
            raw_spent[op_id].append(latency)
            if isinstance(outcome, BaseException):
                failures.append((op.name, type(outcome).__name__))
                continue
            try:
                verdict = op.check(outcome)
            except Exception as exc:
                failures.append((op.name, f"wrong output: {exc}"))
                continue
            latencies[op_id].append(scaled)
            done += 1
            elements += op.elements
            exact += verdict.exact
            if verdict.bounds:
                lower += verdict.bounds[0]
                upper += verdict.bounds[1]
        end = time.perf_counter()
        passes.append({"wall_s": end - t_pass - (speed.spent - spent_pass), "norm_s": norm_s,
                       "done": done, "elements": elements, "exact": exact, "lower": lower,
                       "upper": upper})
        elapsed = end - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return {"wall_s": elapsed - (speed.spent - spent0), "passes": passes,
            "attempted": len(passes) * len(ops), "latencies": latencies, "spent": spent,
            "raw_spent": raw_spent, "failures": failures}


def op_medians(runs: list[dict], key: str) -> list[float]:
    """Each op's median over every pass of ``runs``; ops with no sample are left out."""
    per_op = [[t for r in runs for t in r[key][i]] for i in range(len(runs[0][key]))]
    return [statistics.median(ts) for ts in per_op if ts]


def typical_pass_s(runs: list[dict], key: str = "spent") -> float:
    """Time of a typical pass: the sum of every op's median time."""
    return sum(op_medians(runs, key))


def per_pass(runs: list[dict], stat: str) -> float:
    passes = [p for r in runs for p in r["passes"]]
    return sum(p[stat] for p in passes) / len(passes)


def throughput(runs: list[dict], key: str = "spent") -> float:
    """Passing ops per second of a typical pass."""
    return per_pass(runs, "done") / typical_pass_s(runs, key)


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    It is a mean of the order statistics weighted by a Beta((n+1)/2,
    (n+1)/2) density, so several ops near the middle share the weight.  The
    sample median of per-op medians rests on one or two ops, and spread about
    twice as much from run to run.  The density is integrated by the
    midpoint rule, 20 points per order statistic.
    """
    ordered = sorted(values)
    n = len(ordered)
    exponent = (n + 1) / 2 - 1
    weights = [0.0] * n
    for k in range(20 * n):
        x = (k + 0.5) / (20 * n)
        weights[k // 20] += (4 * x * (1 - x)) ** exponent
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(medians: list[float]) -> float:
    """Mean latency of the slowest TAIL_SHARE of the ops, each at its median.

    A single order statistic of a few samples jumps between neighbouring
    ops from run to run; the mean over the slowest tenth does not.
    """
    slowest = sorted(medians, reverse=True)[:math.ceil(TAIL_SHARE * len(medians))]
    return statistics.fmean(slowest)


def top_percentile(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    q = (len(ordered) - 10) / len(ordered)
    return ordered[math.ceil(q * len(ordered)) - 1], 100 * q


def end_to_end(run: dict, setup_s: float) -> dict[str, float]:
    """Timings from per-op medians over the passes, at reference speed."""
    passes = run["passes"]
    medians = op_medians([run], "latencies")
    total = {k: sum(p[k] for p in passes) for k in ("exact", "lower", "upper")}
    return {
        "setup_s": setup_s,
        "ops_per_s": throughput([run]),
        "elements_per_s": per_pass([run], "elements") / typical_pass_s([run]),
        "op_p50_ms": 1000 * hd_median(medians),
        "op_tail_ms": 1000 * tail(medians),
        "ok_frac": 1 - len(run["failures"]) / run["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_frac": total["exact"] / run["attempted"],
        "bound_ratio": total["upper"] / total["lower"],
    }


UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "elements_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB", "exact_frac": "ratio",
    "bound_ratio": "ratio",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    stat = name.rsplit(".", 1)[-1]
    return {"calls": "count", "errors": "count", "elements": "count", "violations": "count",
            "nodes": "count", "bytes": "B", "overhead_frac": "ratio"}.get(
        stat, "1/s" if stat.endswith("_per_s") else "s")


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "t = time.perf_counter(); import totalcolour.cli, totalcolour.jsonio; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                          check=True)
    return float(proc.stdout)


def run_workload(args: argparse.Namespace) -> int:
    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    sys.path.insert(0, str(ROOT / "src"))
    speed = Speedometer()
    try:
        import totalcolour
        import totalcolour.cli
        import totalcolour.jsonio
    except ImportError as exc:
        print(f"error: cannot import totalcolour from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import tracer as tracing

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    try:
        tampered = workloads.selfcheck(totalcolour, work)
        print(f"# selfcheck: {tampered} tampered outputs rejected", flush=True)
        # Each set-up step is rescaled to reference speed like an op.
        import_s, gen_s = [], []
        before = speed.window()
        for _ in range(IMPORT_REPEATS):
            took = import_seconds()
            after = speed.window()
            import_s.append(took * Speedometer.scale(before, after))
            before = after
        for _ in range(SETUP_REPEATS):
            gen = lambda: workloads.SETUP[args.workload](  # noqa: E731
                totalcolour, random.Random(args.seed), work)
            ops, took, inside = speed.timed(gen, sample=True)
            if isinstance(ops, BaseException):
                raise ops
            after = speed.window()
            gen_s.append(took * Speedometer.scale(before, inside, after))
            before = after
        setup_s = statistics.median(import_s) + statistics.median(gen_s)

        if args.trace:
            # Untraced and traced passes alternate, so host drift hits both.
            plain, traced = [], []
            tracer = tracing.Tracer()
            start = time.perf_counter()
            while True:
                # No slices inside ops, so that spans hold program time only.
                plain.append(measure(ops, 0, 1, speed, sample=False))
                tracer.install(totalcolour)
                try:
                    traced.append(measure(ops, 0, 1, speed, tracer, sample=False))
                finally:
                    tracer.uninstall()
                elapsed = time.perf_counter() - start
                if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                    break
            metrics = tracer.metrics(sum(r["wall_s"] for r in traced),
                                     1 - throughput(traced) / throughput(plain))
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            runs = plain + traced
            detail = {"absent": sorted(tracer.absent)}
        else:
            run = measure(ops, args.seconds, MIN_PASSES, speed)
            metrics = end_to_end(run, setup_s)
            runs = (run,)
            top_s, top_q = top_percentile([t for lat in run["latencies"] for t in lat])
            detail = {
                "op_tail_ops": math.ceil(TAIL_SHARE * len(op_medians([run], "latencies"))),
                "samples": sum(len(lat) for lat in run["latencies"]),
                "op_top_ms": 1000 * top_s,
                "op_top_ms_percentile": top_q,
                "fail_frac": len(run["failures"]) / run["attempted"],
                "bound_gap": sum(p["upper"] - p["lower"] for p in run["passes"]) / len(run["passes"]),
                "raw_ops_per_s": throughput([run], "raw_spent"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    detail.update(env=env, pass_wall_s=[[p["wall_s"] for p in r["passes"]] for r in runs],
                  pass_norm_s=[[p["norm_s"] for p in r["passes"]] for r in runs],
                  calibration_s=speed.spent,
                  setup_import_s=import_s, setup_gen_s=gen_s, failures=sorted(set(failures)),
                  selfcheck_rejected=tampered)
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit(name)}")
    for key, unit_name in (("fail_frac", "ratio"), ("bound_gap", "colours"), ("op_top_ms", "ms")):
        if key in detail:
            print(f"{key:48s} {detail[key]:14.6g} {unit_name}")
    print("# detail " + json.dumps(detail))
    op_ms = {op.name: [1000 * t for t in lat] for op, lat in zip(ops, runs[-1]["latencies"])}
    op_raw_ms = {op.name: [1000 * t for t in lat] for op, lat in zip(ops, runs[-1]["raw_spent"])}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(detail, metrics=metrics, op_ms=op_ms, op_raw_ms=op_raw_ms), indent=2)
        + "\n",
        encoding="utf-8")
    result = {
        # Ops that raise are counted in "failed"; "correct" is false only
        # when an op returned an output that disagrees with its reference.
        "correct": not any(reason.startswith("wrong output") for _, reason in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(f"## {name}\n{proc.stdout}", end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
