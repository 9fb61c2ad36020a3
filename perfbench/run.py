"""The creaselab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload's `crease-lab` jobs the way users run them: one fresh
interpreter per job, one at a time, each importing `creaselab.cli` from
`src/` of this checkout and calling `cli.main` on a generated config.  Whole
passes over the job list repeat until the next one would end after
`--seconds`; at least one pass runs.  Every job's report is checked.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics.  With `--trace 1` untraced and traced passes alternate
and the JSON holds the per-layer metrics (see tracer.py), including the
tracing overhead; a tracer self-test runs first.  The lines before the JSON
list every job, the environment and each metric with its unit.

`python3 perfbench/run.py --selftest` runs only the tracer self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_SUFFIXES, combine, metric_names
from workloads import WORKLOADS, Job, errors, jobs_for, problems, shows_known_defect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 150  # no further pass starts if it would end after this

DIGITS = [
    "lsw_digits", "crease_identity_digits", "vacuum_constraint_digits", "adm_energy_digits",
    "flux_fit_digits", "solve_residual_digits", "gap_closure_digits",
]
DIGIT_CAP = 16.0
END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MiB", "pass_frac": "frac",
                    **{d: "digits" for d in DIGITS}}


def digits(error: float) -> float:
    """-log10 of an error, capped at DIGIT_CAP; no error measured reads the cap."""
    return DIGIT_CAP if error <= 0.0 else min(DIGIT_CAP, -math.log10(error))


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict:
    """The caller's environment, with this checkout's sources first on the path.

    BLAS thread counts default to 1.  The jobs are single-threaded Python and
    numpy, but sparse LU and ARPACK would otherwise spread over the second
    core, and their time would then follow whatever else that core runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def run_child(work: Path, tag: str, argv: list[str], trace: bool, vacuum_probe: bool = False) -> dict:
    """Run child.py on one CLI invocation.

    Returns the child's exit status, plus its measurements and `setup_s`
    (spawn to `creaselab.cli` imported) when it finished, and the tail of its
    output when it or the command failed.
    """
    spec = work / f"{tag}.spec.json"
    result = work / f"{tag}.result.json"
    spec.write_text(json.dumps({"argv": argv, "trace": trace, "vacuum_probe": vacuum_probe,
                                "src": str(SRC), "result": str(result)}))
    log_path = work / f"{tag}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)], cwd=ROOT,
                                  env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
            returncode = proc.returncode
        except subprocess.TimeoutExpired:
            returncode = "timeout"
    out = {"returncode": returncode}
    if returncode == 0 and result.exists():
        out.update(json.loads(result.read_text()))
        out["setup_s"] = out["ready"] - spawned
    if out.get("exit") != 0:
        out["log_tail"] = log_path.read_text(errors="replace")[-1500:]
    return out


def run_job(work: Path, tag: str, job: Job, trace: bool, vacuum_probe: bool = False) -> dict:
    config = work / f"{tag}.yaml"
    config.write_text(json.dumps(job.config))  # JSON is YAML
    out_dir = work / tag
    argv = [job.command, "--config", str(config), "--out", str(out_dir)]
    run = run_child(work, tag, argv, trace, vacuum_probe and job.vacuum)
    report_path = out_dir / "report.json"
    report = json.loads(report_path.read_text()) if "exit" in run and report_path.exists() else None
    exit_code = run.get("exit", f"child {run['returncode']}")
    found = problems(job, exit_code, report)
    known = bool(found) and set(found) <= {"exit 1", "passed false"} and shows_known_defect(job, report)
    if trace and not run.get("restored", False):
        found.append("tracer left a wrapper installed")
        known = False
    return {"job": job, "run": run, "report": report, "problems": found, "known_defect": known}


def describe(pass_no: int, traced: bool, r: dict) -> str:
    run = r["run"]
    head = f"pass {pass_no}{' traced' if traced else ''} {r['job'].name}:"
    if "exit" not in run:
        return f"{head} child failed ({run['returncode']}):\n{run['log_tail']}"
    line = (f"{head} exit {run['exit']}, setup {run['setup_s']:.3f} s (import {run['import_s']:.3f} s), "
            f"command {run['command_s']:.3f} s (cpu {run['command_cpu_s']:.3f} s), rss {run['rss_kb'] / 1024:.1f} MiB")
    if r["known_defect"]:
        return f"{line}, FAILED (known defect: {r['job'].known_defect})"
    if r["problems"]:
        return f"{line}, FAILED: {'; '.join(r['problems'])}\n{run.get('log_tail', '').rstrip()}"
    return f"{line}, ok"


def import_scipy_special_s(repeats: int = 3) -> float:
    """Median cumulative import time of scipy.special under `import creaselab.cli`."""
    values = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import creaselab.cli"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import creaselab.cli failed: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "scipy.special":
                values.append(int(parts[1]) * 1e-6)
    return statistics.median(values) if values else 0.0


def layer_counts(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k.endswith(COUNT_SUFFIXES)}


SELFTEST_JOB = Job(
    name="selftest-solve-miao_corner", command="solve",
    config={"catalog": {"name": "miao_corner", "params": {"m": 1.0, "rho0": 3.0}}, "seed": 0,
            "grid": {"n_minus": 256, "n_plus": 1024, "r_max": 400.0}}, mass=1.0,
)


def tracer_selftest(work: Path) -> list[str]:
    """Two traced runs of one small solve: counts must repeat and wrappers come off."""
    runs = [run_job(work, f"selftest-{i}", SELFTEST_JOB, trace=True) for i in range(2)]
    found = [f"self-test run {i}: {p}" for i, r in enumerate(runs) for p in r["problems"]]
    if found:
        return found
    first, second = (layer_counts(r["run"]["layers"]) for r in runs)
    if first != second:
        found.append("self-test counts differ: " + ", ".join(k for k in first if first[k] != second[k]))
    if first["radial.assemble.calls"] != 3:
        found.append(f"self-test radial.assemble.calls = {first['radial.assemble.calls']}, expected 3")
    return found


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "machine": platform.machine()}
    for pkg in ("numpy", "scipy"):
        env[pkg] = importlib.metadata.version(pkg)
    jobs_env = child_env()
    env.update({var: jobs_env[var] for var in BLAS_THREAD_VARS})
    return env


def closure_lines(results: list[dict]) -> list[str]:
    """Refinement study of the solve jobs: closure and defects per (n_minus, n_plus, r_max)."""
    lines = []
    for r in results:
        if r["job"].command == "solve" and r["report"] is not None:
            res, grid = r["report"]["results"], r["job"].config["grid"]
            gap, solver = res["gap"], res["solver"]
            closure = abs(gap["gap"] + gap["crease_term"]) / abs(gap["flux_term"])
            lines.append(
                f"closure {r['job'].name}: n_minus {grid['n_minus']} n_plus {grid['n_plus']} r_max {grid['r_max']:g}"
                f" gap_closure {closure:.4e} relative_residual {solver['relative_residual']:.3e}"
                f" transmission_defect {solver['transmission_defect']:.3e}"
                f" origin_defect {solver['origin_defect']:.3e} poincare {res['poincare']['estimate']:.6g}")
    return lines


def end_to_end(untraced: list[list[dict]]) -> dict:
    runs = [r for p in untraced for r in p]
    done = [r for r in runs if "exit" in r["run"]]
    worst = {}
    for r in runs:
        found = errors(r["job"], r["report"]) if r["report"] is not None else {}
        probe = r["run"].get("vacuum_probe")
        if probe:
            found["vacuum_constraint_digits"] = max(probe["mu_max"], probe["J_max"])
        for name, err in found.items():
            worst[name] = max(worst.get(name, 0.0), err)
    failed = sum(1 for r in runs if r["problems"])
    values = {
        "setup_s": statistics.median(r["run"]["setup_s"] for r in done) if done else math.inf,
        "study_s": statistics.median(sum(r["run"].get("command_s", math.inf) for r in p) for p in untraced),
        "peak_rss_mb": max((r["run"]["rss_kb"] / 1024 for r in done), default=math.inf),
        "pass_frac": (len(runs) - failed) / len(runs),
    }
    values.update({d: digits(worst.get(d, 0.0)) for d in DIGITS})
    unmeasured = [d for d in DIGITS if d not in worst]
    return values, unmeasured


def per_layer(untraced: list[list[dict]], traced: list[list[dict]], scipy_special_s: float) -> tuple[dict, list[str]]:
    sums = []
    for p in traced:
        layers = [r["run"].get("layers") for r in p]
        if any(x is None for x in layers):
            return {}, ["a traced job produced no layer summary"]
        sums.append(combine(layers))
    found = [f"traced pass {i + 1} counts differ from pass 1" for i, s in enumerate(sums[1:], 1)
             if layer_counts(s) != layer_counts(sums[0])]
    values = {}
    for name in metric_names():
        if name.endswith(COUNT_SUFFIXES) or name.endswith("reeval_ratio"):
            values[name] = sums[0][name]
        else:
            values[name] = statistics.median(s[name] for s in sums)
    study = [statistics.median(sum(r["run"]["command_s"] for r in p) for p in passes) for passes in (traced, untraced)]
    values["setup.import_scipy_special_s"] = scipy_special_s
    values["trace.overhead_s"] = study[0] - study[1]
    return values, found


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run only the tracer self-test")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # run the cleanup below
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "creaselab" / "cli.py").is_file():
        print(f"no creaselab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload or 'selftest'}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.selftest:
            found = tracer_selftest(work)
            print("\n".join(found) if found else "tracer self-test: ok")
            return 1 if found else 0
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # fails while another run still uses it


def bench(args, work: Path) -> int:
    jobs = jobs_for(args.workload, args.seed)
    trace = bool(args.trace)
    # untimed warm-up: byte-compiled modules and the page cache as a user's second run has them
    warm = subprocess.run([sys.executable, "-c", "import creaselab.cli"], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"import creaselab.cli failed:\n{warm.stderr[-2000:]}", file=sys.stderr)
        return 2
    found = []
    scipy_special_s = 0.0
    if trace:
        scipy_special_s = import_scipy_special_s()
        found += tracer_selftest(work)

    untraced, traced = [], []
    modes = [False, True] if trace else [False]
    started = time.monotonic()
    while True:
        for mode in modes:
            passes = traced if mode else untraced
            first = not untraced and not mode
            results = [run_job(work, f"p{len(untraced) + len(traced)}-{k}", job, mode, vacuum_probe=first)
                       for k, job in enumerate(jobs)]
            passes.append(results)
            for r in results:
                print(describe(len(passes), mode, r))
        elapsed = time.monotonic() - started
        per_round = elapsed / len(untraced)
        if elapsed + per_round > min(args.seconds, RUN_LIMIT_S):
            break

    all_runs = [r for p in untraced + traced for r in p]
    found += [f"{r['job'].name}: {'; '.join(r['problems'])}" for r in all_runs
              if r["problems"] and not r["known_defect"]]
    attempted = len(all_runs)
    failed = sum(1 for r in all_runs if r["problems"])

    print("env " + json.dumps(environment(), sort_keys=True))
    for line in closure_lines(untraced[0]):
        print(line)
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    if trace:
        values, more = per_layer(untraced, traced, scipy_special_s)
        found += more
        units = {name: layer_unit(name) for name in values}
        unmeasured = []
    else:
        values, unmeasured = end_to_end(untraced)
        units = END_TO_END_UNITS
    for name, value in values.items():
        note = " (not computed by this workload: no error, so the cap)" if name in unmeasured else ""
        print(f"metric {name} = {value!r} {units[name]}{note}")
    for problem in found:
        print(f"INCORRECT {problem}")
    print(json.dumps({
        "correct": not found,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
