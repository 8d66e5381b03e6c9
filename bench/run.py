"""Benchmark of the slenderquad package: one workload per run.

    python3 bench/run.py --workload k_operator --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run prints an environment block and the workload's named metrics, writes
the details to bench/out/, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones from
a run that wraps the package's public functions (see tracer.py). The
workload "all" runs every workload untraced, each in its own process, and
prints every named metric with its unit. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# Single-threaded BLAS/OpenMP in this process and every child, set before numpy
# loads. numpy, the package and the bench modules that import them load lazily,
# so that a set-up sample starts before they do.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("k_operator", "s_field", "experiments")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_cal": "cal",
    "main_tail_cal": "cal",
    "bypass_cal": "cal",
    "main_digits": "digits",
    "bypass_digits": "digits",
}
UNTRACED_SHARE = 0.25  # of a traced run spent with the wrappers out, for the overhead ratio


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no such percentile exists; the maximum is
    reported, at 100 %.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _digits(err: float) -> float:
    """Correct decimal digits of an absolute error; none for a non-finite one."""
    return -math.log10(max(err, 1e-17)) if math.isfinite(err) else 0.0


def summarize_role(records: list[dict]) -> dict:
    """Medians and tails of one role's steps, raw and in calibration units.

    Steps that raised have no time; they count as failed, not here.
    """
    records = [r for r in records if r["seconds"] is not None]
    if not records:
        return {"samples": 0}
    times = [r["seconds"] for r in records]
    cals = [r["cal"] for r in records]
    tail, pct = _tail(times)
    tail_cal, _ = _tail(cals)
    return {
        "samples": len(times),
        "median_s": statistics.median(times),
        "tail_s": tail,
        "tail_percentile": pct,
        "median_cal": statistics.median(cals),
        "tail_cal": tail_cal,
        "digits": _digits(max(r["error"] for r in records)),
    }


def environment() -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_sha": _git_sha(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env["caches"][f"L{level}"] = size
    return env


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _load(workload: str, seed: int, tiny: bool):
    import workloads

    return workloads.WORKLOADS[workload](seed, tiny, OUT_DIR)


def _run_op(w, op: int, tracer, tag: str | None) -> list[dict]:
    """Run and check every step of one operation; the clock covers the call only.

    tag is the role the tracer files the steps under: None for their own
    role, "setup" for the warm-up, "untraced" while the wrappers are out.
    A step's "cal" is its time in units of the speed kernel's mean time
    around and during it (see speed.py).
    """
    import speed

    traced = tracer is not None and tag != "untraced"
    out = []
    for step in w.steps(op):
        if tracer is not None:
            tracer.begin_step(op, step.name, tag or step.role)
        span = tracer.bench_span(step.name) if traced else nullcontext()

        def call(step=step, span=span):
            with span:
                return step.call()

        value, raised, seconds, calibrated = None, None, None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value, seconds, kernel_s = speed.timed(call)
                calibrated = seconds / kernel_s
            except Exception:  # a failed operation is counted, and the loop goes on
                raised = traceback.format_exc()
        error, ok = math.inf, False
        if raised is None:
            try:
                error, ok = step.check(value)
            except Exception:
                raised = traceback.format_exc()
        if raised is not None:
            print(f"step {step.name} of operation {op} failed:\n{raised}", file=sys.stderr)
        if traced:
            tracer.count("nearsing.fallback_warnings", len(caught))
            if step.name == "field_test" and ok:
                sidecar = (w.dir / "field_test.json").read_text(encoding="utf-8")
                tracer.count("oracle.flagged_points", json.loads(sidecar)["flagged_points"])
        out.append(
            {
                "op": op,
                "name": step.name,
                "role": step.role,
                "seconds": seconds,
                "cal": calibrated,
                "error": error,
                "ok": bool(ok and math.isfinite(error)),
                "warnings": len(caught),
                "traced": traced,
            }
        )
    return out


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Fresh-process set-up: import through inputs and one warm-up operation."""
    t0 = perf_counter()
    w = _load(workload, seed, tiny)
    for step in w.steps(0):
        step.call()
    return perf_counter() - t0


def _probe_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def measure(args) -> dict:
    """Set up, compute references, warm up, then run the closed loop for args.seconds.

    The set-up of this process, which is fresh, is one set-up sample when
    untraced; child processes started after the loop give the others.
    References are computed outside every timed window and outside set-up.
    """
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    t0 = perf_counter()
    import workloads

    if tracer is not None:
        tracer.install()
        tracer.begin_step(-1, "setup", "setup")
    w = _load(args.workload, args.seed, args.tiny)
    own_setup = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    w.references()
    if tracer is not None:
        tracer.install()
    warm = _run_op(w, 0, tracer, tag="setup")
    own_setup += sum(r["seconds"] or 0.0 for r in warm)
    if tracer is not None:
        tracer.uninstall()

    records = []
    roles_needed = {s.role for s in w.steps(0)}
    seen = set()
    start = perf_counter()
    untraced_until = start + UNTRACED_SHARE * args.seconds
    op = 0
    while perf_counter() - start < args.seconds or not roles_needed <= seen:
        tag = None
        if tracer is not None:
            if perf_counter() < untraced_until:
                tag = "untraced"
            elif not tracer.installed:
                tracer.install()
        done = _run_op(w, op, tracer, tag)
        records.extend(done)
        if tag is None:
            seen.update(r["role"] for r in done)
        op += 1
    if tracer is not None:
        tracer.uninstall()

    probes = 1 if args.tiny else workloads.WORKLOADS[args.workload].setup_probes
    setups = [] if tracer is not None else [own_setup]
    setups += [_probe_in_child(args) for _ in range(probes - len(setups))]

    timed = [r for r in records if r["traced"] == (tracer is not None)]
    summary = {role: summarize_role([r for r in timed if r["role"] == role])
               for role in ("main", "bypass", "other")}
    ops = sorted({r["op"] for r in records})
    failed = sorted({r["op"] for r in records if not r["ok"]})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setups,
        "warmup_ok": all(r["ok"] for r in warm),
        "summary": summary,
        "attempted": len(ops),
        "failed": len(failed),
        "failed_ops": failed,
        "warnings": sum(r["warnings"] for r in records),
        "steps": records,
    }
    named = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_share": (len(failed) / len(ops), "1"),
    }
    named.update(w.named(summary))
    result["named"] = named
    if tracer is not None:
        main = [r for r in records if r["role"] == "main"]
        result["per_layer"] = tracer.summarize(
            untraced_main=[r["cal"] for r in main if not r["traced"] and r["cal"] is not None],
            traced_main=[r["cal"] for r in main if r["traced"] and r["cal"] is not None],
        )
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT_DIR / f"{args.workload}-{args.seed}-spans.npz")
    return result


def end_to_end(result: dict) -> dict:
    s = result["summary"]
    values = {
        "setup_s": result["named"]["setup_s"][0],
        "peak_rss_mb": result["named"]["peak_rss_mb"][0],
        "main_cal": s["main"]["median_cal"],
        "main_tail_cal": s["main"]["tail_cal"],
        "bypass_cal": s["bypass"]["median_cal"],
        "main_digits": s["main"]["digits"],
        "bypass_digits": s["bypass"]["digits"],
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def run_one(args) -> int:
    result = measure(args)
    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in result["named"].items():
        print(f"{args.workload}.{name} {value:.6g} {unit}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1, default=float) + "\n", encoding="utf-8")
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in result["per_layer"].items()}
    else:
        metrics = end_to_end(result)
    correct = result["failed"] == 0 and result["warmup_ok"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith(("ratio", "per_root", "per_build", "per_reference")) else "count"


def run_all(args) -> int:
    """Every workload, untraced and in its own process; every named metric by name."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        last = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        detail = json.loads((OUT_DIR / f"{workload}-{args.seed}-trace0.json").read_text())
        for name, (value, unit) in detail["named"].items():
            print(f"{workload:12s} {name:30s} {value:14.6g} {unit}")
            metrics[f"{workload}.{name}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the schema self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slenderquad" / "__init__.py").is_file():
        print(f"error: no slenderquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed, args.tiny)}))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
