"""One benchmark run in a fresh process.

Sets up (imports susytb, validates every scenario, builds the system
normalisations), runs the scenarios through the public CLI pipeline and
writes a JSON result: setup and run wall times, peak resident memory, the
output files and, when traced, the per-layer figures and the span dump.
With ``--pace`` the host's speed is sampled after set-up and throughout the
run (``pacer.py``), so the parent can rescale both times to a fixed speed.

    python3 bench/child.py --command compare --out DIR --result FILE CONFIG...
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("configs", nargs="+")
    ap.add_argument("--command", choices=("compare", "propagate"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pace", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import susytb.cli as cli
    import susytb.config as config

    t_import = time.perf_counter() - t0
    texts = [Path(p).read_text(encoding="utf-8") for p in args.configs]

    tracer = None
    if args.trace:
        import spans

        probe = config.validate_config(texts[0]).system
        period = probe.periods().fundamental if probe.is_dynamic else None
        tracer = spans.Tracer(run_id=Path(args.result).stem, period=period)
        spans.install(tracer)

    t1 = time.perf_counter()
    cfgs = [config.validate_config(t) for t in texts]
    for cfg in cfgs:
        cfg.system.pseudo_norm_sign(next(iter(cfg.system.energies())))
    setup_s = t_import + (time.perf_counter() - t1)

    result: dict = {"setup_s": setup_s}
    if args.pace:
        import pacer

        result["setup_pace"] = pacer.block()
    if not args.setup_only:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        first_run_span = len(tracer.spans) if tracer else 0
        if args.pace:
            pacer.start()
        t2, c2 = time.perf_counter(), time.process_time()
        for cfg, path in zip(cfgs, args.configs):
            if args.command == "compare":
                cli.run(cfg, out)
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["propagate", path])
                if code != 0:
                    raise RuntimeError(f"susytb propagate exited with {code}")
                (out / f"{cfg.basename}.propagate.json").write_text(buf.getvalue(), encoding="utf-8")
        result["run_s"] = time.perf_counter() - t2
        result["run_cpu_s"] = time.process_time() - c2
        if args.pace:
            result["run_pace"], result["run_paced_s"], result["run_chunks"] = pacer.stop()
        result["files"] = sorted(p.name for p in out.iterdir())
        result["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        if tracer is not None:
            tracer.restore()
            metrics = spans.layer_metrics(tracer, first_run_span)
            metrics["cli.bytes_written"] = result["bytes_written"]
            accounted = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
            metrics["trace.accounted_ratio"] = accounted / result["run_s"]
            metrics["trace.spans"] = len(tracer.spans)
            result["layers"] = metrics
            result["missing_wrappers"] = tracer.missing
            Path(args.result).with_suffix(".spans.json").write_text(
                json.dumps(tracer.dump()), encoding="utf-8")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
