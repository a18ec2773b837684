"""Benchmark for mmner.

One workload:

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 25 --trace 0

prints a line per metric and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.

Every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py [--seed 1] [--seconds 25]

writes perfbench/out/report.json with the machine, every metric and the
named per-workload figures. Run from the root of a source checkout; the
program is imported from its src/ directory.
"""

from __future__ import annotations

import os

# One BLAS thread: the desk model's matrices are too small to gain from
# more, and a thread pool on a shared machine only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def run_one(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name](ROOT, HERE / "work" / f"{name}-{seed}-{os.getpid()}", seed)
    try:
        if trace:
            layers = workload.trace()
            wanted = spec["per_layer"]
        else:
            samples = workload.measure(seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workload.work, ignore_errors=True)
    ledger = workload.ledger
    failed = min(ledger.failed, ledger.attempted)
    share = failed / ledger.attempted if ledger.attempted else 1.0

    print(f"workload {name}, seed {seed}, tracing {'on' if trace else 'off'}")
    if trace:
        detail = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        for key, (value, unit) in layers.items():
            shown = "not exercised" if value is None else f"{value:.6g} {unit}"
            print(f"  {key:44s} {shown}")
        missing = [m["name"] for m in wanted if layers.get(m["name"], (None,))[0] is None]
        if missing:
            raise SystemExit(f"perfbench: per-layer metrics not measured: {missing}")
        metrics = {m["name"]: {"value": layers[m["name"]][0], "unit": m["unit"]} for m in wanted}
    else:
        values = {
            "setup_s": (statistics.median(samples["setup_s"]), len(samples["setup_s"])),
            "throughput_per_s": (samples["items"] / samples["busy_s"], samples["items"]),
            "session_s": (samples["session_s"], 1),
            "peak_rss_mb": (workloads.peak_rss_mb(), 1),
        }
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
        detail = {}
        for m in wanted:
            value, n = values[m["name"]]
            detail[m["name"]] = {"value": value, "unit": m["unit"], "samples": n}
        for key, (unit, value, n) in samples["named"].items():
            detail[key] = {"value": value, "unit": unit, "samples": n}
        for key, row in detail.items():
            print(f"  {key:20s} {row['value']:.6g} {row['unit']} (n={row['samples']})")
    print(f"  failed_op_share      {share:.6g} ({failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    write_json(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": ledger.attempted, "failed": failed, "failed_op_share": share,
        "problems": ledger.problems, "metrics": detail,
        "samples": {} if trace else dict(samples["samples"], setup_s=samples["setup_s"]),
        "spans": [[s.name, s.start, s.end, s.parent] for s in workload.tracer.spans]
        if trace else [],
    })
    return {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
            "metrics": metrics}


def machine() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def run_all(spec: dict, seed: int, seconds: int) -> int:
    """Each workload in its own process, untraced then traced."""
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"perfbench: {name} (trace {trace}) exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
            detail = json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())
            detail.pop("spans")
            results.setdefault(name, {"why": workload["why"], "seed": seed})[
                "traced" if trace else "timed"] = detail
    write_json(OUT / "report.json", {"machine": machine(), "run_seconds": seconds,
                                     "workloads": results})
    print(f"wrote {OUT / 'report.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmner" / "__init__.py").is_file():
        print(f"perfbench: no mmner sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        return run_all(spec, args.seed, seconds)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    result = run_one(spec, args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
