"""minnet benchmark: CLI workloads end to end, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 40 --trace 0

``--trace 0`` runs the workload's CLI commands as fresh
``PYTHONPATH=src python -m minnet.cli ...`` subprocesses, one at a time, in
passes over the whole command list until ``--seconds`` is used up (at least
two passes, so that every output file is compared byte for byte between
reruns).  This process and its children are pinned to one core, so
OpenBLAS starts one thread.

A shared host runs other tenants on the same physical cores, and they make
a core up to 60 % slower for anything from a fraction of a second to
minutes, each core on its own.
So a fixed probe (``probe()``, pure Python and small numpy arrays, about
50 ms) runs on the same core just before and just after every command, and
each command's wall time is scaled by ``PROBE_REF_S / probe time``: the
seconds it would take on a core on which the probe takes ``PROBE_REF_S``.
The end-to-end metrics are sums of each command's median scaled time over
the passes; the raw wall times and probe times are in the record line.

``--trace 1`` runs one pass in this process with every package module
wrapped from outside (see tracing.py) and reports the per-layer metrics,
then runs the workload's scaling ladder, if it has one, for the exponents.
A per-layer metric that the workload does not exercise reads 0.  Its
times are raw wall seconds.

The last line of standard output is the result object; the line before it
is a record of the environment, every command and every check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MINNET_THREADS")
DEADLINE_S = 165.0        # the run must end within 180 s
MIN_PASSES = 2            # byte-identical reruns need a second pass
SETUP_SAMPLES = 3         # at the start; one more follows every pass
LADDER_BUDGET_S = 20.0    # a stage over budget skips the larger sizes
PROBE_REF_S = 0.050       # s; near the fastest probe() seen on a 2-vCPU x86 VM

KIND = {"generate": "generate_s", "verify": "verify_s", "conjugate": "derive_s",
        "reflect": "derive_s", "orbit": "derive_s", "export": "derive_s"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "generate_s": "s",
                    "verify_s": "s", "derive_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One CLI command, the files it writes and what its output must satisfy."""

    argv: list[str]
    outputs: tuple[str, ...] = ()
    report: str | None = None               # report file whose "ok" must be true
    identical_to: tuple[str, str] | None = None   # (output, earlier file)


def _net_files(base: str) -> tuple[str, ...]:
    return tuple(f"{base}.{part}.dnet.json" for part in ("iso", "asym", "gauss", "grid"))


def _generate(family: list[str], base: str, extra: tuple[str, ...] = ()) -> Op:
    report = f"{base}.report.json"
    return Op(["generate", *family, "--out", base, "--report", report],
              _net_files(base) + extra, report)


def _verify(base: str) -> Op:
    report = f"{base}.verify.json"
    return Op(["verify", f"{base}.iso.dnet.json", "--grid", f"{base}.grid.dnet.json",
               "--conjugate", f"{base}.asym.dnet.json", "--report", report], (), report)


# Sizes are fixed and small, so that one run repeats every command many times
# (see end_to_end).  The Enneper order is fixed too: K = 2/3/4 cost 2.8/2.6/3.9 s
# at side 30, so a seed-chosen K would spread the times across seeds.
GRID_K = "3"


def workload_ops(name: str, seed: int) -> list[Op]:
    """The CLI commands of one pass, in order; paths are relative to the pass."""
    if name == "grid":
        return [
            _generate(["enneper", "--k", GRID_K, "--size", "24"], "enn"),
            _generate(["planar-enneper", "--size", "16"], "plan"),
            Op(["conjugate", "enn.grid.dnet.json", "--out", "conj.asym.dnet.json"],
               ("conj.asym.dnet.json",),
               identical_to=("conj.asym.dnet.json", "enn.asym.dnet.json")),
            _verify("enn"),
            Op(["export", "enn.iso.dnet.json", "enn.iso.obj"], ("enn.iso.obj",)),
        ]
    if name == "knoid":
        return [
            _generate(["knoid", "--k", "3", "--nmax", "5", "--mmax", "15"], "knoid"),
            _verify("knoid"),
            Op(["export", "knoid.iso.dnet.json", "knoid.iso.obj"], ("knoid.iso.obj",)),
        ]
    if name == "orbit":
        line = ["--row", "0"] if seed % 2 == 0 else ["--col", "0"]
        return [
            _generate(["platonic", "--preset", "octahedral", "--resolution", "3", "--orbit"],
                      "oct", ("oct.orbit.json", "oct.orbit.obj")),
            _verify("oct"),
            # Known defect: exits 3 with OrbitExplosion (dedup at max(tol, 1e-9)
            # against a closure residual of 8.3e-9); counted as a failed operation.
            # With working dedup the group closes at --max-word 11 (the
            # resolution-2 piece closes at 11 and not at 10), so 11 keeps the
            # defect visible at about a tenth of the cost of the default 16.
            Op(["orbit", "oct.iso.dnet.json", "--max-word", "11", "--out", "oct.group.json"],
               ("oct.group.json",)),
            Op(["reflect", "oct.iso.dnet.json", *line, "--out", "oct.iso.ext.dnet.json"],
               ("oct.iso.ext.dnet.json",)),
            Op(["reflect", "oct.asym.dnet.json", *line, "--asymptotic",
                "--out", "oct.asym.ext.dnet.json"], ("oct.asym.ext.dnet.json",)),
            Op(["export", "oct.orbit.json", "oct.export.obj"], ("oct.export.obj",)),
        ]
    raise ValueError(f"unknown workload {name!r}")


def ladder_ops(name: str) -> list[tuple[int, Op]]:
    """(quads, command) stages of the traced scaling ladder, smallest first."""
    if name == "grid":
        return [(s * s, _generate(["enneper", "--k", GRID_K, "--size", str(s)],
                                  f"ladder{s}")) for s in (20, 40, 80)]
    if name == "knoid":
        return [(n * m, _generate(["knoid", "--k", "3", "--nmax", str(n), "--mmax", str(m)],
                                  f"ladder{n}x{m}")) for n, m in ((3, 10), (6, 18), (8, 24))]
    return []


LADDER_EXPONENTS = {
    "grid": {"holomorphic.power_function_exp": "holomorphic.power_function",
             "cli.verify_pair_exp": "cli.verify_pair",
             "minimal.weierstrass_exp": "minimal.weierstrass",
             "net.write_exp": "net.write"},
    "knoid": {"bvp.solve_exp": "bvp.solve"},
}
EXPONENT_METRICS = sorted({m for table in LADDER_EXPONENTS.values() for m in table})


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_op(op: Op, directory: str, exit_code: int) -> tuple[list[str], dict]:
    """Problems with one finished command, and the digests of its outputs.

    A problem starting with "wrong:" means the program produced output that
    fails a check; "error:" means it stopped without producing its output.
    """
    if exit_code != 0:
        kind = "wrong" if exit_code == 1 else "error"
        return [f"{kind}: exit code {exit_code}"], {}
    problems, digests = [], {}
    for name in op.outputs:
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            digests[name] = sha256(path)
        else:
            problems.append(f"wrong: missing output {name}")
    if op.report is not None:
        try:
            with open(os.path.join(directory, op.report)) as fh:
                ok = json.load(fh).get("ok") is True
        except (OSError, ValueError):
            ok = False
        if not ok:
            problems.append(f"wrong: report {op.report} is not ok")
    if op.identical_to is not None:
        out, other = op.identical_to
        other_path = os.path.join(directory, other)
        if out in digests and (not os.path.isfile(other_path)
                               or digests[out] != sha256(other_path)):
            problems.append(f"wrong: {out} is not byte-identical to {other}")
    return problems, digests


def digest_problems(reference: dict, digests: dict) -> list[str]:
    """Outputs whose SHA-256 differs from the same command's first pass."""
    return [f"wrong: {name} differs from the first pass"
            for name, value in sorted(digests.items())
            if name in reference and reference[name] != value]


def _tail(path: str, size: int = 400) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-size:].decode(errors="replace")


def tally(results: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over command results."""
    failed = sum(1 for r in results if r["problems"])
    wrong = any(p.startswith("wrong:") for r in results for p in r["problems"])
    return not wrong, len(results), failed


# ---------------------------------------------------------------------------
# End-to-end runs: one subprocess at a time
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    return env


_PROBE_POINTS = np.linspace(0.0, 1.0, 192).reshape(64, 3)


def probe() -> float:
    """Seconds for a fixed amount of pure-Python and small-array numpy work.

    It stands for the speed of the core at this moment.
    """
    start = time.perf_counter()
    for _ in range(4):
        total = 0
        for i in range(36000):
            total += i * i % 7
        for _ in range(360):
            np.cross(_PROBE_POINTS, _PROBE_POINTS[::-1]).sum()
    return time.perf_counter() - start


def run_child(argv: list[str], cwd: str, env: dict, deadline: float,
              log: str = "child") -> dict:
    """Run one process to completion, with a probe of the core before and after.

    Returns wall seconds, exit code, peak RSS in MB, the mean probe time and
    the wall time scaled to the reference core speed.  Its output goes to
    <log>.out and <log>.err in cwd.
    """
    before = probe()
    with open(os.path.join(cwd, f"{log}.out"), "wb") as out, \
            open(os.path.join(cwd, f"{log}.err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    probe_s = (before + probe()) / 2
    return {"wall": seconds, "exit": os.waitstatus_to_exitcode(status),
            "rss_mb": usage.ru_maxrss / 1024.0, "probe": probe_s,
            "seconds": seconds * PROBE_REF_S / probe_s}


def run_pass(ops: list[Op], directory: str, env: dict, deadline: float,
             reference: list[dict] | None) -> list[dict]:
    os.makedirs(directory)
    results = []
    for i, op in enumerate(ops):
        child = run_child([sys.executable, "-m", "minnet.cli", *op.argv],
                          directory, env, deadline, f"cmd{i}")
        problems, digests = check_op(op, directory, child["exit"])
        if reference is not None:
            problems += digest_problems(reference[i]["digests"], digests)
        stderr = _tail(os.path.join(directory, f"cmd{i}.err")) if problems else ""
        results.append({"argv": op.argv, **child, "digests": digests, "problems": problems,
                        "stderr": stderr})
    return results


def median_metrics(passes: list[list[dict]]) -> dict[str, float]:
    """End-to-end metrics from each command's median time over the passes."""
    medians = [statistics.median(results[i]["seconds"] for results in passes)
               for i in range(len(passes[0]))]
    metrics = {"wall_s": sum(medians), "generate_s": 0.0, "verify_s": 0.0, "derive_s": 0.0,
               "peak_rss_mb": max(r["rss_mb"] for results in passes for r in results)}
    for r, seconds in zip(passes[0], medians):
        metrics[KIND[r["argv"][0]]] += seconds
    return metrics


def end_to_end(workload: str, seed: int, seconds: int, work: str) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = child_env()
    setup_argv = [sys.executable, "-c", "import minnet.cli"]
    run_child(setup_argv, work, env, deadline)          # warm-up: bytecode cache
    setup = [run_child(setup_argv, work, env, deadline) for _ in range(SETUP_SAMPLES)]

    ops = workload_ops(workload, seed)
    passes: list[list[dict]] = []
    while True:
        results = run_pass(ops, os.path.join(work, f"pass{len(passes)}"), env, deadline,
                           passes[0] if passes else None)
        passes.append(results)
        # set-up samples spread over the run see the same host as the commands
        setup.append(run_child(setup_argv, work, env, deadline))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
        if elapsed + per_pass > DEADLINE_S:
            break

    metrics = median_metrics(passes)
    metrics["setup_s"] = statistics.median(s["seconds"] for s in setup)
    correct, attempted, failed = tally([r for results in passes for r in results])
    if any(s["exit"] != 0 for s in setup):
        correct = False
    fields = ("wall", "probe", "seconds", "exit")
    record = {"setup": [{k: s[k] for k in fields} for s in setup],
              "passes": [[{k: r[k] for k in ("argv", *fields, "rss_mb", "problems", "stderr")}
                          for r in results] for results in passes]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END_UNITS.items()}}
    return result, record


# ---------------------------------------------------------------------------
# Traced run: in process, every layer wrapped from outside
# ---------------------------------------------------------------------------

def run_in_process(op: Op, directory: str) -> dict:
    import minnet.cli

    os.makedirs(directory, exist_ok=True)
    here = os.getcwd()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        os.chdir(directory)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = minnet.cli.main(list(op.argv))
    except Exception:                     # a traceback is a failed command, not a crash
        err.write(traceback.format_exc())
        code = None
    finally:
        os.chdir(here)
    seconds = time.perf_counter() - start
    if code is None:
        problems = ["wrong: uncaught exception"]
    else:
        problems, _ = check_op(op, directory, code)
    return {"argv": op.argv, "seconds": seconds, "exit": code, "problems": problems,
            "stderr": err.getvalue()[-400:] if problems else ""}


def traced(workload: str, seed: int, work: str) -> tuple[dict, dict]:
    start = time.monotonic()
    sys.path.insert(0, SRC)
    import tracing

    tracer = tracing.Tracer()
    directory = os.path.join(work, "pass0")
    with tracing.instrument(tracer):
        results = [run_in_process(op, directory) for op in workload_ops(workload, seed)]
    metrics = tracing.per_layer_metrics(tracer)

    stages, over_budget = [], False
    for quads, op in ladder_ops(workload):
        if over_budget or time.monotonic() - start > DEADLINE_S / 2:
            stages.append({"argv": op.argv, "quads": quads, "skipped": True})
            continue
        stage_tracer = tracing.Tracer()
        with tracing.instrument(stage_tracer):
            res = run_in_process(op, os.path.join(work, "ladder"))
        results.append(res)
        over_budget = res["seconds"] > LADDER_BUDGET_S
        stages.append({"argv": op.argv, "quads": quads, "skipped": False,
                       "seconds": res["seconds"], "calls": dict(stage_tracer.calls),
                       "layers": {key: stage_tracer.inclusive[key]
                                  for key in LADDER_EXPONENTS[workload].values()}})
    done = [s for s in stages if not s["skipped"]]
    metrics.update({name: 0.0 for name in EXPONENT_METRICS})
    for name, key in LADDER_EXPONENTS.get(workload, {}).items():
        metrics[name] = tracing.fit_exponent([s["quads"] for s in done],
                                             [s["layers"][key] for s in done])

    correct, attempted, failed = tally(results)
    record = {"commands": [{k: r[k] for k in ("argv", "seconds", "exit", "problems", "stderr")}
                           for r in results],
              "ladder": stages, "calls": dict(tracer.calls), "counts": dict(tracer.counts)}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in sorted(metrics.items())}}
    return result, record


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_exp"):
        return "exponent"
    if metric.startswith("net.bytes_"):
        return "B"
    if metric.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Environment record and entry point
# ---------------------------------------------------------------------------

ENV_PROBE = """
import json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}))
"""


def environment(thread_vars: dict, nproc: int, cpus: list[int], work: str) -> dict:
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=work, env=child_env(),
                           capture_output=True, text=True, timeout=60)
    record = json.loads(probe.stdout) if probe.returncode == 0 else {"probe": probe.stderr}
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
        commit = git.stdout.strip() if git.returncode == 0 else None
    record.update({"nproc": nproc, "cpus_in_workload": cpus, "commit": commit,
                   "thread_vars_at_start": thread_vars,
                   "thread_vars_in_workload": "unset"})
    return record


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("grid", "knoid", "orbit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minnet", "cli.py")):
        print(f"perfbench: no minnet sources under {SRC}", file=sys.stderr)
        return 2
    # Users get OpenBLAS's default thread count: run with these unset.
    thread_vars = {name: os.environ.pop(name, None) for name in THREAD_VARS}
    nproc = len(os.sched_getaffinity(0))
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            result, record = traced(args.workload, args.seed, work)
        else:
            # One core for this process and every child, so that the probes
            # measure the core the commands run on.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
            result, record = end_to_end(args.workload, args.seed, args.seconds, work)
        record["environment"] = environment(thread_vars, nproc, sorted(os.sched_getaffinity(0)),
                                            work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    record.update({"workload": args.workload, "seed": args.seed, "trace": args.trace})
    print(json.dumps({"record": record}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
