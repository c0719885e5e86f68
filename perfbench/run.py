"""lpcert benchmark: verdicts on two workloads, checked for correctness.

    python3 perfbench/run.py --workload {large-n,sweep,all}
        --seed N --seconds T --trace {0,1}

Run it from the root of a checkout: it runs the program from ``src``
(``PYTHONPATH=src``; the package need not be installed).  See
``perfbench/README.md`` for the workloads, the metrics and the traced
run.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable summary and the recorded run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracer as tracing
import verdicts
from mixes import MIXES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("large-n", "sweep")
SETUP_SAMPLES = 8
THREADS = "2"
REFERENCE = os.path.join(HERE, "reference.json")
# Seconds of --seconds budgeted per mix cycle.  A run measures
# round(seconds / this) whole cycles, the same count on every run, so that
# runs share their sample count and tail percentile; at the benchmark's
# --seconds both workloads run three cycles, so that every command has
# three samples to take a median of.
NOMINAL_CYCLE_S = 19.0
END_TO_END = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_p50_s": "s",
              "verdict_tail_s": "s", "peak_rss_mb": "MiB"}


def child_env(root: str) -> dict:
    """Pinned environment of every child: the program from src, THREADS=2,
    single-threaded BLAS/OpenMP, no bytecode writing, fixed hash seed."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update(PYTHONPATH=os.path.join(root, "src"), THREADS=THREADS,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def spawn(argv: list[str], env: dict, cwd: str, out_path: str
          ) -> tuple[int, float, int, str]:
    """Run argv to completion: (exit code, wall s, max RSS KiB, stderr)."""
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, wall, usage.ru_maxrss, stderr


def setup_samples(env: dict, cwd: str, n: int) -> list[float]:
    """Seconds from starting a fresh interpreter to ``import lpcert.cli``
    returning, measured by the parent when the child reports it."""
    code = "import lpcert.cli, sys; sys.stdout.write('ok\\n'); sys.stdout.flush()"
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                cwd=cwd, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.close()
        finally:
            proc.wait()
        if line.strip() != b"ok" or proc.returncode != 0:
            raise RuntimeError("import lpcert.cli failed in a fresh "
                               "interpreter")
        out.append(t1 - t0)
    return out


def scipy_import_s(env: dict, cwd: str, n: int = 3) -> float:
    """Cumulative import time of scipy.optimize under -X importtime."""
    vals = []
    for _ in range(n):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import lpcert.cli"], env=env, cwd=cwd,
                             capture_output=True, text=True, check=True)
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
                vals.append(int(parts[1]) / 1e6)
                break
    return statistics.median(vals) if vals else 0.0


def run_cli(workload: str, seed: int, cycles: int, root: str, work: str,
            env: dict, traced: bool):
    """Closed loop, one client: whole mix cycles of CLI subprocesses."""
    records: list[dict] = []
    loop_wall = 0.0
    out_path = os.path.join(work, "stdout")
    for k in range(cycles):
        specs = MIXES[workload](seed, k, work)
        t0 = time.perf_counter()
        for spec in specs:
            if traced:
                spans_path = os.path.join(work, "spans.json")
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                        spans_path, "--"] + spec["argv"]
            else:
                argv = [sys.executable, "-m", "lpcert.cli"] + spec["argv"]
            rc, wall, rss_kb, stderr = spawn(argv, env, root, out_path)
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
            rec = dict(spec, rc=rc, wall_s=wall, rss_kb=rss_kb,
                       stdout_bytes=len(text.encode()), stderr=stderr[-400:])
            try:
                rec["report"] = verdicts.parse_report(text)
            except (ValueError, StopIteration):
                rec["report"] = None
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    rec["trace"] = json.load(fh)
                os.remove(spans_path)
            records.append(rec)
        loop_wall += time.perf_counter() - t0
    return {"records": records, "cycles": cycles, "loop_wall_s": loop_wall,
            "maxrss_kb": max(r["rss_kb"] for r in records)}


def run_sweep(seed: int, cycles: int, root: str, work: str, env: dict,
              traced: bool):
    """The in-process client, in one child process."""
    out_path = os.path.join(work, "sweep.json")
    argv = [sys.executable, os.path.join(HERE, "sweep_client.py"),
            "--seed", str(seed), "--cycles", str(cycles), "--out", out_path]
    spans_path = os.path.join(work, "sweep-spans.json")
    if traced:
        argv += ["--spans", spans_path]
    rc, _, rss_kb, stderr = spawn(argv, env, root,
                                  os.path.join(work, "sweep.out"))
    if rc != 0:
        raise RuntimeError(f"sweep client exited {rc}: {stderr[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["maxrss_kb"] = rss_kb
    if traced:
        with open(spans_path, encoding="utf-8") as fh:
            result["trace"] = json.load(fh)
    return result


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum (100) if there are ten or fewer."""
    s = sorted(walls)
    if len(s) <= 10:
        return s[-1], 100.0
    idx = len(s) - 11
    return s[idx], 100.0 * (idx + 1) / len(s)


def kind_walls(records: list[dict]) -> list[float]:
    """Each verdict's wall time replaced by the median over the run's
    cycles of its kind (its id without the cycle prefix), so that one
    stalled call moves no metric."""
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        by_kind.setdefault(rec["id"].split(".", 1)[1], []).append(
            rec["wall_s"])
    med = {kind: statistics.median(v) for kind, v in by_kind.items()}
    return [med[rec["id"].split(".", 1)[1]] for rec in records]


def end_to_end(run: dict, setup: list[float]) -> tuple[dict, dict]:
    walls = kind_walls(run["records"])
    tail_s, tail_pct = tail(walls)
    metrics = {"setup_s": statistics.median(setup),
               "verdicts_per_s": len(walls) / sum(walls),
               "verdict_p50_s": statistics.median(walls),
               "verdict_tail_s": tail_s,
               "peak_rss_mb": run["maxrss_kb"] / 1024.0}
    info = {"tail_percentile": tail_pct, "samples": len(walls),
            "setup_samples": len(setup), "cycles": run["cycles"],
            "loop_wall_s": run["loop_wall_s"]}
    return metrics, info


def per_layer(workload: str, plain: dict, traced: dict, env: dict,
              root: str) -> dict:
    """Per-layer metrics of the traced pass, per mix cycle (the
    bisection steps per bisection)."""
    cycles = traced["cycles"]
    if workload == "sweep":
        span_sets = [traced["trace"]["spans"]]
        imports = [traced["import_s"]]
        wall = traced["import_s"] + traced["loop_wall_s"]
        startup = traced["import_s"]
        inside = traced["loop_wall_s"]
        emit_bytes = 0
        overhead = traced["loop_wall_s"] / plain["loop_wall_s"] - 1.0
    else:
        recs = traced["records"]
        span_sets = [r["trace"]["spans"] for r in recs]
        imports = [r["trace"]["meta"]["import_s"] for r in recs]
        mains = [sum(s[2] - s[1] for s in r["trace"]["spans"]
                     if s[0] == "cli.main") for r in recs]
        wall = sum(r["wall_s"] for r in recs)
        inside = sum(mains)
        startup = wall - inside
        emit_bytes = sum(r["stdout_bytes"] for r in recs)
        overhead = wall / sum(r["wall_s"] for r in plain["records"]) - 1.0
    out = tracing.aggregate(span_sets, int(THREADS), cycles)
    out["cli.emit_bytes"] = emit_bytes / cycles
    library = sum(out[f"{tracing.metric_prefix(layer)}.self_s"]
                  for layer in tracing.LAYERS
                  if layer != "cli") * cycles
    out.update({"cli.import_s": statistics.median(imports),
                "cli.import_scipy_s": scipy_import_s(env, root),
                "trace.startup_share": startup / wall,
                "trace.library_share": library / inside,
                "trace.overhead_frac": overhead})
    return out


def run_env(workload: str, seed: int, root: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    try:
        res = subprocess.run(["getconf", "-a"], capture_output=True,
                             text=True)
        for line in res.stdout.splitlines():
            key, _, val = line.partition(" ")
            if key.endswith("CACHE_SIZE") and val.strip():
                caches[key.lower()] = int(val)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        sha = res.stdout.strip() or sha
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"workload": workload, "seed": seed, "cpu": cpu,
            "cores": os.cpu_count(), "caches_bytes": caches,
            "python": platform.python_version(), **versions, "git_sha": sha,
            "threads": THREADS, "blas_threads": 1,
            "bytecode": "PYTHONDONTWRITEBYTECODE=1 in every child "
                        f"(caller had {os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')})"}


def load_reference(workload: str, seed: int) -> dict | None:
    if seed != verdicts.REFERENCE_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def write_reference(workload: str, records: list[dict]) -> None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {"seed": verdicts.REFERENCE_SEED, "rel_tol": verdicts.REL_TOL,
               "workloads": {}}
    ref["workloads"][workload] = {r["id"]: verdicts.reference_entry(r)
                                  for r in records}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_workload(workload: str, args, root: str, env: dict) -> dict:
    """One workload: set-up samples, the untraced pass, the traced pass
    when asked, the correctness gate and the metrics."""
    work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        # half the set-up samples before the measured cycles and half
        # after, so that their median spans the run rather than its start
        setup = setup_samples(env, root, SETUP_SAMPLES // 2)
        window = args.seconds / 2 if args.trace else args.seconds
        cycles = max(1, round(window / NOMINAL_CYCLE_S))

        def one_pass(traced: bool) -> dict:
            if workload == "sweep":
                return run_sweep(args.seed, cycles, root, work, env, traced)
            return run_cli(workload, args.seed, cycles, root, work, env,
                           traced)

        passes = [one_pass(False)]
        setup += setup_samples(env, root, SETUP_SAMPLES - len(setup))
        if args.trace:
            passes.append(one_pass(True))
        plain = passes[0]
        layers = (per_layer(workload, plain, passes[1], env, root)
                  if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = (None if args.write_reference
                 else load_reference(workload, args.seed))
    attempted = failed = 0
    for name, one in zip(("untraced", "traced"), passes):
        n_bad, found = verdicts.count_failed(one["records"], reference)
        attempted += len(one["records"])
        failed += n_bad
        for vid, msgs in sorted(found.items()):
            print(f"FAILED {workload} ({name}) {vid}: {'; '.join(msgs)}",
                  file=sys.stderr)
    if args.write_reference and not failed:
        write_reference(workload, plain["records"])

    e2e, info = end_to_end(plain, setup)
    print(f"workload {workload}: {info['samples']} verdicts in "
          f"{info['cycles']} cycle(s), {info['loop_wall_s']:.2f} s; tail is "
          f"p{info['tail_percentile']:.1f} of {info['samples']}; setup_s "
          f"from {info['setup_samples']} interpreters")
    by_kind: dict[str, list[float]] = {}
    for rec in plain["records"]:
        by_kind.setdefault(rec["id"].rsplit(".", 1)[1], []).append(
            rec["wall_s"])
    print("  median wall per verdict kind (s): " + ", ".join(
        f"{kind} {statistics.median(v):.3g}"
        for kind, v in sorted(by_kind.items(),
                              key=lambda kv: statistics.median(kv[1]))))
    shown = dict(e2e, failed_frac=failed / attempted)
    for key, unit in dict(END_TO_END, failed_frac="ratio").items():
        print(f"  {key:16s} {shown[key]:12.6g} {unit}")
    if args.trace:
        units = tracing.per_layer_metrics()
        for key, val in layers.items():
            print(f"  {key:40s} {val:14.6g} {units[key]}")
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's verdicts as the reference "
                         f"(seed {verdicts.REFERENCE_SEED} only)")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lpcert", "cli.py")):
        print("error: run from the root of an lpcert checkout "
              "(src/lpcert/cli.py not found)", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != verdicts.REFERENCE_SEED:
        print(f"error: the reference is for seed {verdicts.REFERENCE_SEED}",
              file=sys.stderr)
        return 2

    env = child_env(root)
    print("env " + json.dumps(run_env(args.workload, args.seed, root),
                              sort_keys=True))
    single = args.workload != "all"
    names = [args.workload] if single else list(WORKLOADS)
    attempted = failed = 0
    metrics = {}
    for name in names:
        res = run_workload(name, args, root, env)
        attempted += res["attempted"]
        failed += res["failed"]
        for key, val in res["metrics"].items():
            metrics[key if single else f"{name}.{key}"] = val
    if args.write_reference and failed:
        print("error: reference not written: some verdicts failed",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
