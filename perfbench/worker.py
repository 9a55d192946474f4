"""One pass of a workload in a fresh interpreter.

Usage (the orchestrator ``run.py`` starts it; the package is imported from
``../src``)::

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR [--trace] [--setup-only]

The pass imports ``rieszlab``, writes one spec file per experiment into DIR,
records the monotonic time at which it is ready and probes the host's speed
(``pace``); with ``--setup-only`` it stops there.  It then runs every
experiment in-process through ``rieszlab.cli.main([...], standalone_mode=False)``,
one after another, and writes ``DIR/result.json``: exit codes, first-start
and last-end times, raw and drift-corrected wall time, peak resident set
and, with ``--trace``, the spans and counts of ``tracing``.  Untraced passes
probe the host's speed while the experiments run (``pace.Sampler``); traced
passes do not, so that no probe lands inside a span.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

SRC = Path(__file__).resolve().parents[1] / "src"
READY_PROBES = 5    # probes right after set-up, for its drift correction


def write_specs(exps, workdir: Path) -> list[Path]:
    paths = []
    for i, exp in enumerate(exps):
        path = workdir / f"spec{i:02d}.json"
        path.write_text(json.dumps({"command": exp.command, **exp.spec}, indent=1),
                        encoding="utf-8")
        paths.append(path)
    return paths


def out_dir(workdir: Path, index: int) -> Path:
    return workdir / f"out{index:02d}"


def run_experiments(exps, spec_paths, workdir: Path,
                    tracer=None) -> tuple[list[int], float, float]:
    """Run each experiment through the CLI; returns exit codes and the
    ``perf_counter`` times of the first start and the last end."""
    import click
    from rieszlab.cli import main

    codes = []
    t_first = time.perf_counter()
    for i, (exp, spec) in enumerate(zip(exps, spec_paths)):
        if tracer is not None:
            tracer.experiment = i
        argv = [exp.command, "--config", str(spec), "--out", str(out_dir(workdir, i))]
        try:
            main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # an internal error fails this experiment, not the pass
            traceback.print_exc()
            code = 1
        codes.append(code)
    return codes, t_first, time.perf_counter()


def backend() -> dict:
    """The active backend and the function bound at ``_fast.pair_sum``; None
    for whatever a later layout no longer has."""
    def attr(module: str, name: str):
        try:
            return getattr(importlib.import_module(module), name, None)
        except ImportError:
            return None

    return {"backend": attr("rieszlab._accel", "BACKEND"),
            "pair_sum_impl": getattr(attr("rieszlab._fast", "pair_sum"), "__qualname__", None)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import rieszlab
    import rieszlab.cli  # noqa: F401  (click and every layer, as a CLI user loads them)

    if Path(rieszlab.__file__).resolve().parent != SRC / "rieszlab":
        print(f"rieszlab imported from {rieszlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    exps = workloads.experiments(args.workload, args.seed)
    spec_paths = write_specs(exps, args.dir)
    result = {"t_ready": time.monotonic()}
    import pace  # numpy is loaded by now; the probes are not part of set-up

    ready_probes = [pace.probe() for _ in range(READY_PROBES)]
    result["setup_speed"] = pace.speed(ready_probes)
    if not args.setup_only:
        if args.trace:
            tracer = Tracer()
            tracer.install()
            codes, t_first, t_last = run_experiments(exps, spec_paths, args.dir, tracer)
            result["wall_raw"] = t_last - t_first
        else:
            with pace.Sampler() as sampler:
                codes, t_first, t_last = run_experiments(exps, spec_paths, args.dir)
            result["wall_raw"], result["wall_corrected"] = sampler.corrected(
                t_first, t_last, ready_probes)
        result.update(codes=codes, wall=[t_first, t_last],
                      peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      **backend())
        if args.trace:
            result.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing)
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
