"""The repository benchmark: one command, seeded workloads, checked results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload a2o_dup --seed 1 --seconds 5 --trace 0

The load is a closed loop from one client: a single local Spark session
(no more task threads than the machine has cores) answers one request at
a time. Set-up (session start, input generation and caching, and one
warm-up round whose every result is checked, the checks left out) is
timed as ``setup_s``; then rounds of the workload's requests run until
``--seconds`` have passed, and the CPU seconds of a round are
``round_cpu_s``. Every request must reproduce its checked reference
outcome exactly; any exception or mismatch counts as failed and makes
the command exit non-zero.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same untraced rounds, then as many again with
spans recorded around every layer, and prints the per-layer metrics.
The last line of standard output is one JSON object; a run record with
all spans is written to ``.bench_out/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DRIVER_MEMORY = "3g"
ALL_KINDS = ("repart", "preagg_repart", "grasp", "plan")


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _program_present() -> bool:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError:
        return False
    return Path(repro.__file__).resolve().is_relative_to(src.resolve())


def _threads() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def _start_spark(threads: int):
    """A local session with the test suite's settings, writing only
    under ``.bench_out/``."""
    local, tmp = OUT / "spark-local", OUT / "tmp"
    for d in (local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # Every JVM, spark-submit's launcher included: no /tmp/hsperfdata.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{threads}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(OUT / 'warehouse'))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _descendants(pid: int) -> list[int]:
    """Live processes below ``pid``, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(stat.parent.name))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _stop_spark(spark) -> None:
    """Stop the session; wait for the driver JVM and the Python worker
    daemon it started to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    workers = _descendants(proc.pid)
    proc.stdin.close()  # the gateway JVM exits at end of its stdin
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    # The worker daemon exits once its pipe from the JVM closes.
    deadline = time.monotonic() + 30
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in filter(_alive, workers):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)


def _jvm_pid(spark) -> int:
    return spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()


def _cpu_s(jvm_pid: int) -> float:
    """CPU seconds used so far by this process, the driver JVM and the
    JVM's Python workers (alive, or reaped into their parent's total)."""
    tick = os.sysconf("SC_CLK_TCK")
    total = time.process_time()
    for pid in [jvm_pid, *_descendants(jvm_pid)]:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # utime, stime, cutime, cstime: fields 14-17 of proc(5).
        total += sum(int(f) for f in fields[11:15]) / tick
    return total


def _jvm_peak_rss_mb(jvm_pid: int) -> float:
    for line in Path(f"/proc/{jvm_pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from the JVM's /proc status")


def _record(spark, args, threads: int) -> dict:
    import duckdb
    import numpy
    import pyspark

    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode())
        digest.update(f.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        git_sha = git.stdout.strip() or None
    mem_kb = next(
        int(line.split()[1])
        for line in Path("/proc/meminfo").read_text().splitlines()
        if line.startswith("MemTotal:")
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb / 1024.0,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "duckdb": duckdb.__version__,
        "spark_master": spark.sparkContext.master,
        "driver_memory": DRIVER_MEMORY,
        "load": f"closed loop, 1 client, local[{threads}]",
    }


def _rounds(wl, tracer, seconds: float, tag: str, jvm_pid: int):
    """Run rounds of ``wl``'s requests until ``seconds`` have passed.

    Returns each round's wall seconds and CPU seconds spent in requests
    (checks excluded), requests attempted and requests failed. Each
    request is a ``query`` span on ``tracer``.
    """
    walls: list[float] = []
    cpus: list[float] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        wall = cpu = 0.0
        for kind in wl.kinds:
            tracer.request = f"{tag}{len(walls)}.{kind}"
            attempted += 1
            sp = None
            try:
                # A plan runs on the driver only: no Spark jobs to tag.
                with tracer.span("query", jobs=kind != "plan", kind=kind) as sp:
                    c0 = _cpu_s(jvm_pid)
                    out = wl.request(kind)
                    sp.notes["cpu_s"] = _cpu_s(jvm_pid) - c0
                wall += sp.seconds
                cpu += sp.notes["cpu_s"]
                wl.check(kind, out, tracer)
            except Exception:
                failed += 1
                if sp is not None:
                    sp.notes["failed"] = True
                traceback.print_exc()
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus, attempted, failed


def _queries(tracer, kind: str) -> list:
    """The successful request spans of one kind."""
    return [
        s
        for s in tracer.spans
        if s.name == "query" and s.notes.get("kind") == kind and not s.notes.get("failed")
    ]


def _query_seconds(tracer, kind: str) -> list[float]:
    return [s.seconds for s in _queries(tracer, kind)]


def _query_cpu_seconds(tracer, kind: str) -> list[float]:
    """CPU seconds the benchmark's processes spent on each request."""
    return [s.notes["cpu_s"] for s in _queries(tracer, kind)]


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _tail(xs: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    if len(xs) < 20:
        return None
    p = int(100 * (1 - 10 / len(xs)))
    return p, statistics.quantiles(xs, n=100)[p - 1]


def _layer_values(tracer, q, facts: dict) -> dict[str, float]:
    """Per-layer values of one traced request ``q`` of one kind; all zero
    for ``q=None`` (a kind the workload does not run)."""
    below = tracer.descendants(q) if q else []

    def spans(name):
        return [s for s in below if s.name == name]

    def secs(name):
        return sum(s.seconds for s in spans(name))

    def with_children(name):
        out = spans(name)
        return out + [c for s in out for c in tracer.descendants(s)]

    executor = with_children("executor")
    counts = spans("executor.count_job")
    sigs = spans("signatures")
    phases = facts.get("phases", 0)
    if counts:
        preagg_rows = counts[0].notes["rows"]
    elif sigs:
        preagg_rows = sigs[0].notes["card_rows"]
    else:
        preagg_rows = 0
    return {
        "query_s": q.seconds if q else 0.0,
        "cpu_s": q.notes["cpu_s"] if q else 0.0,
        "harness.self_s": tracer.self_seconds(q) if q else 0.0,
        "executor.wall_s": secs("executor"),
        "executor.per_phase_s": secs("executor") / phases if phases and spans("executor") else 0.0,
        "executor.count_job_s": secs("executor.count_job"),
        "executor.spark_jobs": sum(s.spark_jobs for s in executor),
        "executor.spark_tasks": sum(s.spark_tasks for s in executor),
        "executor.tuples_sent": facts.get("tuples_sent", 0),
        "executor.dest_tuples": facts.get("dest_tuples", 0),
        "state.preagg_rows": preagg_rows,
        "netsim.phase_cost_s": secs("netsim.phase_cost"),
        "netsim.sim_network_s": facts.get("sim_network_s", 0.0),
        "signatures.wall_s": secs("signatures"),
        "signatures.spark_jobs": sum(s.spark_jobs for s in with_children("signatures")),
        "signatures.spark_tasks": sum(s.spark_tasks for s in with_children("signatures")),
        "planner.wall_s": secs("planner"),
        "planner.cost_matrix_s": secs("planner.cost_matrix"),
        "planner.select_phase_s": secs("planner.select_phase"),
        "planner.phases": phases if spans("planner") else 0,
        "planner.transfers": facts.get("transfers", 0) if spans("planner") else 0,
        "baselines.plan_s": secs("baselines.plan"),
    }


def _per_layer(wl, plain, traced, rss_mb: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for kind in ALL_KINDS:
        facts = wl.facts.get(kind, {})
        per_query = [_layer_values(traced, q, facts) for q in _queries(traced, kind)]
        for key in per_query[0] if per_query else _layer_values(traced, None, {}):
            out[f"{kind}.{key}"] = _median([v[key] for v in per_query])
        out[f"{kind}.oracle.check_s"] = sum(
            s.seconds for s in plain.spans if s.name == "oracle" and s.notes["kind"] == kind
        )
    # GRASP's query where the workload runs it (its layers start Spark
    # jobs, so tracing tags them); otherwise the driver-only plan.
    kind = "grasp" if "grasp" in wl.kinds else "plan"
    untraced = _median(_query_seconds(plain, kind))
    traced_s = _median(_query_seconds(traced, kind))
    out["trace.overhead_frac"] = traced_s / untraced - 1.0 if untraced else 0.0
    out["jvm.peak_rss_mb"] = rss_mb
    out["grasp_sim_speedup"] = wl.speedup or 0.0
    return out


def _card_note(coord) -> dict:
    return {"card_rows": float(coord.card.sum())}


def _rows_note(sizes) -> dict:
    return {"rows": sum(sizes.values())}


def _install_tracing(tracer) -> None:
    from repro.core import grasp
    from repro.engine import executor
    from repro.experiments import harness

    def plan_note(plan):
        return {"phases": len(plan), "transfers": plan.n_transfers}

    # (module, attribute, span name, facts from the result, starts Spark jobs)
    for module, attr, name, note, jobs in (
        (harness, "make_state", "state.make_state", None, False),
        (harness, "preaggregate", "state.preaggregate", None, False),
        (harness, "compute_signatures", "signatures", _card_note, True),
        (harness, "plan_aggregation", "planner", plan_note, False),
        (grasp, "plan_aggregation", "planner", plan_note, False),
        (grasp, "cost_matrix", "planner.cost_matrix", None, False),
        (grasp, "select_phase", "planner.select_phase", None, False),
        (harness, "repartition_plan", "baselines.plan", None, False),
        (harness, "execute_plan", "executor", None, True),
        (executor, "_collect_sizes", "executor.count_job", _rows_note, True),
        (executor, "phase_cost", "netsim.phase_cost", None, False),
    ):
        tracer.wrap(module, attr, name, note, jobs)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not _program_present():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    threads = _threads()
    t0 = time.perf_counter()
    spark = _start_spark(threads)
    try:
        session_s = time.perf_counter() - t0
        plain = Tracer()
        wl = WORKLOADS[args.workload](spark, args.seed)
        t0 = time.perf_counter()
        wl.build()
        build_s = time.perf_counter() - t0
        attempted = failed = 0
        t0 = time.perf_counter()
        for kind in wl.kinds:
            plain.request = f"warmup.{kind}"
            attempted += 1
            try:
                wl.warm_up(kind, plain)
            except Exception:
                failed += 1
                traceback.print_exc()
        warmup_s = time.perf_counter() - t0
        oracle_s = sum(s.seconds for s in plain.spans if s.name == "oracle")
        setup_s = session_s + build_s + warmup_s - oracle_s

        jvm_pid = _jvm_pid(spark)
        rounds, round_cpus, a, f = _rounds(wl, plain, args.seconds, "r", jvm_pid)
        attempted, failed = attempted + a, failed + f
        traced = None
        if args.trace:
            traced = Tracer(spark.sparkContext)
            _install_tracing(traced)
            try:
                _, _, a, f = _rounds(wl, traced, args.seconds, "t", jvm_pid)
            finally:
                traced.unwrap_all()
            attempted, failed = attempted + a, failed + f
            traced.count_jobs()

        record = _record(spark, args, threads)
        rss_mb = _jvm_peak_rss_mb(jvm_pid)
    finally:
        _stop_spark(spark)

    samples = {k: len(_query_seconds(plain, k)) for k in wl.kinds}
    query_s = {k: _median(_query_seconds(plain, k)) for k in wl.kinds}
    tails = {k: _tail(_query_seconds(plain, k)) for k in wl.kinds}
    computed = {
        "setup_s": setup_s,
        "round_s": _median(rounds),
        "round_cpu_s": _median(round_cpus),
    }
    section = "end_to_end"
    if traced is not None:
        computed = _per_layer(wl, plain, traced, rss_mb)
        section = "per_layer"
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared[section]
    }
    record.update(
        session_s=session_s,
        build_s=build_s,
        warmup_s=warmup_s,
        warmup_oracle_s=oracle_s,
        rounds_s=rounds,
        rounds_cpu_s=round_cpus,
        samples=samples,
        query_s=query_s,
        query_cpu_s={k: _median(_query_cpu_seconds(plain, k)) for k in wl.kinds},
        facts=wl.facts,
        tail_s={k: t for k, t in tails.items() if t},
        jvm_peak_rss_mb=rss_mb,
        metrics=metrics,
        missing_spans=traced.missing if traced else [],
    )
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(
        json.dumps(
            {**record, "spans": plain.to_json() + (traced.to_json() if traced else [])},
            indent=1,
        )
    )

    better = {m["name"]: m.get("better") for m in declared[section]}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {record['load']}")
    print(f"  samples per query: {samples}")
    for name, m in metrics.items():
        hint = f"  ({better[name]} is better)" if better[name] else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{hint}")
    for kind, secs in query_s.items():
        tail = f", p{tails[kind][0]} {tails[kind][1]:.6g} s" if tails[kind] else ", no tail (<20 samples)"
        print(f"  {kind} request: median {secs:.6g} s{tail} (not gated: see README)")
    print(f"  run record: {out_file.relative_to(ROOT)}")
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
