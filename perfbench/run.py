"""Benchmark of the lllcolor command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from its sources in
`src/`.  Workloads (see workloads.py): color_dense, bench_tight, sat_chain,
paper_tables.  Load model: a closed loop with one client; each op is one or
more CLI commands, each in a fresh interpreter, run one at a time.  All
children are started through spawner.py, so that their max-RSS is their own.

--trace 0 reports the end-to-end metrics: the median wall time of one op,
the largest max-RSS of any op process and the median set-up time (inputs
generated and written by a fresh interpreter that also imports
lllcolor.cli).  --trace 1 runs each op once plainly and once under
child.py's span tracer and reports the per-layer metrics (layers.py).

The two times are scaled to the machine's speed of the moment.  A shared
host's CPU runs up to twice as slow for spells of seconds to minutes, which
moves raw wall times far more than the program's own changes would.  So
with --trace 0 a fixed computation that imports nothing from lllcolor
(reference.py) runs before the first op or set-up and after each one, on
the same CPU, and each op's wall time is multiplied by REF_S over the mean
of the two reference times around it.  wall_scaled_s and setup_s are the
medians of these scaled times, in seconds of a machine on which the
reference takes REF_S; the report lines also give the raw medians.

Every op's output is checked independently (checks.py); an op fails on a
non-zero exit, a step-limit hit or a rejected output.  Ops of the same
variant must give the same output bytes and the same exact counters; a
mismatch makes the run incorrect.  The last line of stdout is the result
as JSON; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ".perfbench_work"  # under the checkout root, removed after the run
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUPS = 7  # set-ups per run; setup_s is their median
STARTUPS = 3  # bare `import lllcolor.cli` interpreters timed in a traced run
DEADLINE_S = 170.0  # the whole run, children included, ends before this
REF_S = 0.25  # about reference.py's wall time on the 2-core machine the benchmark was written on


class Runner:
    """Spawns children from the checkout root, through spawner.py, and times
    them from outside; ``close`` stops the spawner."""

    def __init__(self, work: Path):
        self.work = work
        self.t0 = time.perf_counter()
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def spawn(self, argv: list[str], stdout: Path) -> tuple[int, float, float]:
        """Run one child to its exit: (exit code, wall seconds, max RSS in MB)."""
        request = {
            "argv": argv,
            "stdout": str(stdout),
            "stderr": str(self.work / "stderr.txt"),
            "timeout": max(1.0, DEADLINE_S - self.elapsed()),
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return reply["code"], reply["wall"], reply["maxrss_kb"] / 1024.0

    def reference(self) -> float:
        """Wall seconds of one reference run; raises if its output is wrong."""
        stdout = self.work / "reference.stdout"
        code, wall, _ = self.spawn([sys.executable, str(HERE / "reference.py")], stdout)
        if code != 0 or stdout.read_text().strip() != reference.CHECKSUM:
            raise RuntimeError(f"reference run exited with {code} or printed a wrong checksum")
        return wall

    def child(self, mode_args: list[str], spans: Path | None = None, op: int = 0) -> list[str]:
        traced = ["--spans", str(spans), "--op", str(op)] if spans else []
        return [sys.executable, str(HERE / "child.py"), *traced, *mode_args]

    def op_argvs(self, steps, spans_prefix: Path | None, op: int) -> list[tuple[list[str], Path, Path | None]]:
        out = []
        for i, (mode, args, stdout) in enumerate(steps):
            spans = spans_prefix.with_name(f"{spans_prefix.name}{i}.json") if spans_prefix else None
            if mode == "cli" and spans is None:
                argv = [sys.executable, "-m", "lllcolor.cli", *args]
            else:
                argv = self.child([mode, *args], spans, op)
            out.append((argv, self.work / stdout, spans))
        return out

    def run_op(self, steps, spans_prefix: Path | None = None, op: int = 0) -> dict:
        """Run an op's commands in order; wall is first spawn to last exit."""
        commands = self.op_argvs(steps, spans_prefix, op)
        codes, rss = [], []
        start = time.perf_counter()
        for argv, stdout, _ in commands:
            code, _, peak = self.spawn(argv, stdout)
            codes.append(code)
            rss.append(peak)
            if code != 0:
                break
        wall = time.perf_counter() - start
        return {"wall": wall, "codes": codes, "rss": max(rss), "stdouts": [c[1] for c in commands],
                "spans": [c[2] for c in commands]}


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


class Guard:
    """Records each variant's output digest and exact counters on first
    sight and reports every later op of that variant that differs."""

    def __init__(self):
        self.first: dict[int, tuple[str, dict]] = {}
        self.errors: list[str] = []

    def see(self, v: int, label: str, out_digest: str, counters: dict) -> None:
        if v not in self.first:
            self.first[v] = (out_digest, counters)
            return
        ref_digest, ref_counters = self.first[v]
        if out_digest != ref_digest:
            self.errors.append(f"{label}: variant {v} output bytes differ from its first op")
        for name in ref_counters.keys() & counters.keys():
            if ref_counters[name] != counters[name]:
                self.errors.append(f"{label}: variant {v} counter {name} = {counters[name]} != {ref_counters[name]}")


class Scaler:
    """Scales wall times by the reference runs just before and after them
    (untraced runs only; a traced run keeps raw times)."""

    def __init__(self, runner: Runner, enabled: bool):
        self.runner = runner
        self.enabled = enabled
        self.refs = [runner.reference()] if enabled else []

    def scale(self, wall: float) -> float:
        if not self.enabled:
            return wall
        self.refs.append(self.runner.reference())
        return wall * REF_S / ((self.refs[-2] + self.refs[-1]) / 2)


def run_setups(runner: Runner, wl, seed: int, traced: bool) -> tuple[list[float], list[float], list[layers.OpTrace], list[str]]:
    """Raw and scaled set-up times, the set-ups' traces and errors."""
    times, scaled, traces, errors = [], [], [], []
    scaler = Scaler(runner, not traced)
    for i in range(SETUPS):
        spans = runner.work / f"setup{i}.spans.json" if traced else None
        argv = runner.child(["setup", wl.name, str(seed), str(runner.work)], spans, -1 - i)
        code, wall, _ = runner.spawn(argv, runner.work / "setup.stdout")
        times.append(wall)
        scaled.append(scaler.scale(wall))
        if code != 0:
            errors.append(f"set-up {i} exited with {code}")
        elif traced:
            trace = layers.OpTrace()
            trace.add_process(json.loads(spans.read_text())["spans"])
            traces.append(trace)
    return times, scaled, traces, errors


def check_op(wl, v: int, result: dict) -> tuple[dict | None, str | None]:
    """The op's exact counters, or the reason it failed."""
    if any(code != 0 for code in result["codes"]):
        return None, f"exit codes {result['codes']}"
    try:
        return wl.check(v, result["stdouts"]), None
    except (checks.CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def measure(runner: Runner, wl, seconds: float, traced: bool) -> dict:
    guard = Guard()
    failures: list[str] = []
    failed = 0
    walls, scaled, plain_walls, rss = [], [], [], []
    op_traces: list[layers.OpTrace] = []
    unattributed: list[float] = []
    variant_counts: dict[int, dict] = {}

    def plain_run(op: int, v: int) -> None:
        """The untraced twin of a traced op, for trace.overhead_frac."""
        plain = runner.run_op(wl.steps(v))
        plain_walls.append(plain["wall"])
        counters, why = check_op(wl, v, plain)
        if why is None:
            guard.see(v, "plain op", digest(wl.output_files(v)), counters)
        else:
            failures.append(f"plain run of op {op} (variant {v}): {why}")

    scaler = Scaler(runner, not traced)
    loop_start = time.perf_counter()
    op = 0
    while op < wl.variants or time.perf_counter() - loop_start < seconds:
        if runner.elapsed() > DEADLINE_S - 20:
            failures.append("stopped early: the run neared its time limit")
            break
        v = op % wl.variants
        if traced and op % 2 == 0:  # alternate which of the pair runs first
            plain_run(op, v)
        result = runner.run_op(wl.steps(v), runner.work / f"op{op}.spans" if traced else None, op)
        walls.append(result["wall"])
        scaled.append(scaler.scale(result["wall"]))
        rss.append(result["rss"])
        counters, why = check_op(wl, v, result)
        if why is not None:
            failed += 1
            failures.append(f"op {op} (variant {v}): {why}")
        elif traced:
            trace = layers.OpTrace()
            for spans in result["spans"]:
                trace.add_process(json.loads(spans.read_text())["spans"])
            error = trace.self_sum_error()
            if error > 1e-9 * max(1.0, trace.roots):
                failures.append(f"op {op}: span self times miss the root spans by {error:.3g} s")
            op_traces.append(trace)
            unattributed.append(result["wall"] - trace.roots)
            span_counts = trace.exact_counts()
            for name in counters.keys() & span_counts.keys():
                if counters[name] != span_counts[name]:
                    failures.append(f"op {op}: {name} is {counters[name]} in the output, {span_counts[name]} in the spans")
            counters = {**span_counts, **counters}
            if v not in variant_counts and wl.count_evals:
                counters["engine.event_evals"] = count_event_evals(runner, wl, v)
        if why is None:
            guard.see(v, "op", digest(wl.output_files(v)), counters)
            variant_counts.setdefault(v, counters)
        if traced and op % 2 == 1:
            plain_run(op, v)
        op += 1
    return {
        "walls": walls,
        "scaled": scaled,
        "refs": scaler.refs,
        "failed": failed,
        "plain_walls": plain_walls,
        "rss": rss,
        "failures": failures,
        "guard": guard,
        "traces": op_traces,
        "unattributed": unattributed,
        "exact": layers.combine_exact([variant_counts[v] for v in sorted(variant_counts)]),
    }


def count_event_evals(runner: Runner, wl, v: int) -> int:
    """Event.occurs calls of one op, counted in a pass of its own."""
    ((_, args, _),) = wl.steps(v)
    out = runner.work / "evals.json"
    code, _, _ = runner.spawn(runner.child(["count-evals", str(out), *args]), runner.work / "evals.stdout")
    if code != 0:
        raise RuntimeError(f"event-count pass exited with {code}")
    return json.loads(out.read_text())["event_evals"]


def startup_seconds(runner: Runner) -> float:
    argv = [sys.executable, "-c", "import lllcolor.cli"]
    return statistics.median(runner.spawn(argv, runner.work / "startup.stdout")[1] for _ in range(STARTUPS))


def report(lines: list[str], metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        lines.append(f"  {name:<32} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"),
                        help="'all' runs the four workloads in turn, each ending with its own result line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lllcolor" / "cli.py").is_file():
        print(f"run.py: no lllcolor sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        work = Path(WORK) / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(work)
        try:
            code = run(args, name, runner)
        finally:
            runner.close()
            shutil.rmtree(work, ignore_errors=True)
            try:
                Path(WORK).rmdir()
            except OSError:
                pass
        if code:
            return code
    return 0


def run(args, name: str, runner: Runner) -> int:
    wl = workloads.make(name, args.seed, runner.work)
    traced = bool(args.trace)
    setup_times, setup_scaled, setup_traces, errors = run_setups(runner, wl, args.seed, traced)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    wl.prepare()
    startup = startup_seconds(runner) if traced else None
    m = measure(runner, wl, args.seconds, traced)

    attempted = len(m["walls"])
    failed = m["failed"]
    problems = m["failures"] + m["guard"].errors
    lines = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  ops {attempted}  failed {failed}",
             f"inputs {json.dumps(wl.properties, sort_keys=True)}",
             f"exact counters {json.dumps(m['exact'], sort_keys=True)}"]
    if traced:
        units = layers.per_layer_units()
        processes = len(wl.steps(0))
        base = statistics.median(m["plain_walls"]) - processes * startup
        traced_wall = statistics.median(m["walls"]) - processes * startup
        metrics = layers.layer_metrics(m["traces"], setup_traces, m["exact"])
        metrics["trace.overhead_frac"] = traced_wall / base - 1
        metrics["trace.unattributed_s"] = statistics.median(m["unattributed"]) if m["unattributed"] else 0.0
        by_span, by_module = layers.shares(m["traces"], sum(m["unattributed"]))
        lines.append(f"per-layer metrics (medians over {len(m['traces'])} traced ops; start-up {startup:.4f} s per process)")
        lines.append("op walls (s), plain: " + " ".join(f"{w:.3f}" for w in m["plain_walls"])
                     + "; traced: " + " ".join(f"{w:.3f}" for w in m["walls"]))
        report(lines, metrics, units)
        lines.append(f"dominant layer {by_module[0][0]} ({by_module[0][1]:.1%} of traced op time); "
                     f"dominant span {by_span[0][0]} ({by_span[0][1]:.1%})")
        lines.append("self-time share by span: " + ", ".join(f"{k} {v:.1%}" for k, v in by_span[:6]))
        lines.append("self-time share by module: " + ", ".join(f"{k} {v:.1%}" for k, v in by_module))
        lines.append("absent on this workload (reported as 0): " + ", ".join(layers.absent(m["traces"], setup_traces)))
    else:
        units = {"wall_scaled_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {
            "wall_scaled_s": statistics.median(m["scaled"]),
            "peak_rss_mb": max(m["rss"]),
            "setup_s": statistics.median(setup_scaled),
        }
        lines.append(f"end-to-end metrics (wall_scaled_s: median of {attempted} ops; setup_s: median of {SETUPS} set-ups;"
                     f" both scaled to a reference time of {REF_S} s)")
        lines.append("op walls (s): " + " ".join(f"{w:.3f}" for w in m["walls"]))
        lines.append("reference walls (s): " + " ".join(f"{w:.3f}" for w in m["refs"]))
        report(lines, metrics, units)
        lines.append(f"  {'raw wall_s':<32} {statistics.median(m['walls']):>14.6g} s")
        lines.append(f"  {'raw setup_s':<32} {statistics.median(setup_times):>14.6g} s")
        lines.append(f"  {'reference_s':<32} {statistics.median(m['refs']):>14.6g} s")
        lines.append(f"  {'fail_frac':<32} {failed / max(attempted, 1):>14.6g} ratio")
    lines += [f"problem: {p}" for p in problems]
    print("\n".join(lines))
    result = {
        "correct": not problems and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,  # no op ran: count the run as one failed op
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
