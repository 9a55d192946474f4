"""rieszlab benchmark: one workload of CLI experiments, measured end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass of the workload is a fresh interpreter
(``worker.py``) with BLAS and OpenMP pinned to one thread, running the
experiments one after another (a closed loop with one client).  Passes repeat
until ``--seconds`` is used up, with at least one pass.

``--trace 0`` reports the end-to-end metrics over untraced passes: ``wall_s``
(median time from the first experiment's start to the last one's end),
``setup_s`` (median time from starting an interpreter until the workload is
ready to run, over at least five interpreters) and ``peak_rss_mb`` (median
peak resident set of a pass).  Both times are drift-corrected by ``pace``
to seconds at a fixed reference speed of the host; the raw times go to the
record.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing``; its ``trace.overhead_frac`` compares raw
times, because traced passes take no probes.  Both check every experiment
against ``gates`` and that every pass, traced or not, wrote the same bytes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record, with
the environment, goes to ``.perfbench_results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads
from worker import out_dir

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0     # a run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts passes one at a time and keeps every process inside a deadline."""

    def __init__(self, workload: str, seed: int, run_dir: Path) -> None:
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.env = child_env()
        self.t0 = time.monotonic()
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def start(self, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one worker; returns its result plus ``setup`` and ``dir``."""
        pass_dir = self.run_dir / f"pass{self.count:03d}"
        self.count += 1
        pass_dir.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--dir", str(pass_dir)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        log = pass_dir / "worker.log"
        with open(log, "wb") as fh:
            t_spawn = time.monotonic()
            proc = subprocess.run(cmd, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        if proc.returncode != 0:
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        result = json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))
        result["setup_raw"] = result["t_ready"] - t_spawn
        result["setup"] = result["setup_raw"] * result["setup_speed"]
        result["dir"] = pass_dir
        return result


def wall(result: dict) -> float:
    """Drift-corrected wall time of a pass (see ``pace``)."""
    return result["wall_corrected"]


def digests(pass_dir: Path, n_exps: int) -> list[dict[str, str]]:
    """Per experiment: SHA-256 of every output file except ``manifest.json``,
    which records wall time."""
    out = []
    for i in range(n_exps):
        files = sorted(p for p in out_dir(pass_dir, i).rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        out.append({str(p.relative_to(pass_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in files})
    return out


def discarded_frac(exps, pass_dir: Path) -> float | None:
    """Discarded over attempted Monte Carlo replicas, from the manifests;
    None when a manifest no longer records the count."""
    discarded = attempted = 0
    for i, exp in enumerate(exps):
        if exp.command == "energy" and exp.spec.get("route") == "mc":
            try:
                manifest = json.loads((out_dir(pass_dir, i) / "manifest.json")
                                      .read_text(encoding="utf-8"))
                discarded += int(manifest["error_counters"]["discarded_replicas"])
            except (OSError, ValueError, KeyError, TypeError):
                return None
            attempted += int(exp.spec["n_replicas"]) * len(exp.spec["R_list"])
    return discarded / attempted if attempted else 0.0


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(backend: dict) -> dict:
    """Read-only record of the interpreter, libraries and machine."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({key: _read(str(idx / key)) for key in ("level", "type", "size")})
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), **versions, **backend,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "caches": caches, "git_commit": git_commit()}


def run(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> dict:
    """Measure one workload; returns the result record."""
    exps = workloads.experiments(workload, seed)
    runner = Runner(workload, seed, run_dir)
    plain, traced = [], []
    while True:
        t_start = runner.elapsed()
        plain.append(runner.start())
        if trace:
            traced.append(runner.start(trace=True))
        if runner.elapsed() + (runner.elapsed() - t_start) > seconds:
            break
    setup_passes = list(plain)
    if not trace:
        while len(setup_passes) < MIN_SETUP_SAMPLES:
            setup_passes.append(runner.start(setup_only=True))
    setups = [p["setup"] for p in setup_passes]

    # correctness: exit codes, gates on the first pass, identical bytes in every pass
    from gates import evaluate  # imports numpy and rieszlab; after the timed passes

    passes = plain + traced
    outs = [out_dir(passes[0]["dir"], i) for i in range(len(exps))]
    gate_results = evaluate(exps, outs, passes[0]["codes"])
    reference = digests(passes[0]["dir"], len(exps))
    failed = differing = 0
    for p in passes:
        same = digests(p["dir"], len(exps))
        for i, ((ok, _), code) in enumerate(zip(gate_results, p["codes"])):
            differing += same[i] != reference[i]
            failed += (not ok) or code != 0 or same[i] != reference[i]
    attempted = len(passes) * len(exps)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "outputs_identical": differing == 0,
        "gates": [{"command": e.command, "gate": e.gate, "ok": ok, "detail": detail}
                  for e, (ok, detail) in zip(exps, gate_results)],
        "passes": {"wall_s": [wall(p) for p in plain], "setup_s": setups,
                   "wall_raw_s": [p["wall_raw"] for p in plain],
                   "setup_raw_s": [p["setup_raw"] for p in setup_passes],
                   "peak_rss_kib": [p["peak_rss_kib"] for p in plain]},
        "environment": environment({k: passes[0][k] for k in ("backend", "pair_sum_impl")}),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    if not trace:
        values = {
            "wall_s": statistics.median(wall(p) for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_kib"] for p in plain) / 1024.0,
        }
        record["missing"] = []
    else:
        units = tracing.metric_units()
        missing = sorted({m for p in traced for m in p["missing"]})
        values = tracing.median_metrics([
            tracing.pass_metrics(p["spans"], p["counts"], tuple(p["wall"]), missing)
            for p in traced])
        frac = discarded_frac(exps, passes[0]["dir"])
        if frac is None:
            missing.append("energy.discarded_frac")
        else:
            values["energy.discarded_frac"] = frac
        values["trace.overhead_frac"] = (statistics.median(p["wall_raw"] for p in traced)
                                         / statistics.median(p["wall_raw"] for p in plain) - 1.0)
        values["error_rate"] = failed / attempted
        record["passes"]["traced_wall_raw_s"] = [p["wall_raw"] for p in traced]
        record["missing"] = missing
        record["spans"] = traced[0]["spans"]  # written to its own file by main
    record["metrics"] = {k: {"value": values[k], "unit": units[k]}
                         for k in units if k in values}
    return record


def report(record: dict) -> None:
    passes = record["passes"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(passes['wall_s'])}")
    print(f"  raw medians, not drift-corrected: wall {statistics.median(passes['wall_raw_s']):.6g} s, "
          f"setup {statistics.median(passes['setup_raw_s']):.6g} s")
    for name, m in record["metrics"].items():
        if name == "error_rate":
            continue
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<44} {record['error_rate']:.6g} fraction "
          f"({record['failed']} of {record['attempted']} experiment runs failed)")
    print("  outputs byte-identical in every pass (manifest.json excepted): "
          f"{record['outputs_identical']}")
    for g in record["gates"]:
        print(f"  gate {'PASS' if g['ok'] else 'FAIL'} {g['command']}/{g['gate']}: {g['detail']}")
    if record["missing"]:
        print(f"  missing (metrics left out): {', '.join(record['missing'])}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "rieszlab" / "__init__.py").is_file():
        print(f"perfbench: no rieszlab sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM becomes SystemExit, so the running worker is killed and reaped
    # and the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the gates import numpy in this process
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in spans))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")
    report(record)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
