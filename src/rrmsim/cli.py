"""Command-line front end: run scenarios and validate configs.

Outputs per run: ``metrics.csv`` (one row per flow per MAC epoch),
``summary.json`` (end-of-run report), and ``events.log`` (one line per
event). All three are byte-identical for the same (config, seed); files are
staged in memory and all written before any is renamed into place, so a
failed run leaves nothing behind. ``RRMSIM_LOG`` (debug/info/warning/error)
controls stderr logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .engine import run_scenario
from .scenario import ParseError, ValidationError, load_scenario

log = logging.getLogger("rrmsim")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

CSV_COLUMNS = (
    "epoch",
    "flow",
    "ue",
    "service",
    "arrived_bits",
    "delivered_bits",
    "throughput_bps",
    "backlog_bits",
    "mean_latency_ms",
)


def _setup_logging() -> None:
    level_name = os.environ.get("RRMSIM_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rrmsim",
        description="Deterministic slot-driven HetNet resource-management simulator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario and write its outputs")
    runp.add_argument("scenario", help="path to a scenario YAML file")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument(
        "--seeds", default=None, metavar="A..B", help="inclusive seed range; one run per seed"
    )
    runp.add_argument(
        "--out", type=Path, default=Path("out"), help="output directory (default: ./out)"
    )

    valp = sub.add_parser("validate", help="check a scenario file and exit")
    valp.add_argument("scenario", help="path to a scenario YAML file")
    return p


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_summary(result) -> str:
    doc = {
        "scenario": result.config.name,
        "seed": result.seed,
        "horizon_slots": result.config.sim.horizon_slots,
        "report": result.report.to_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_events(events) -> str:
    return "".join(e.format() + "\n" for e in events)


def _write_outputs(outdir: Path, staged: dict[str, str]) -> None:
    """Write every staged file to a temporary, then rename them all into place.

    If a write fails, the temporaries and any directory made here are removed
    before the error propagates, so old outputs stay as they were.
    """
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    tmps = {name: outdir / (name + ".tmp") for name in staged}
    try:
        for name, text in staged.items():
            tmps[name].write_text(text)
    except OSError:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        raise
    for name, tmp in tmps.items():
        os.replace(tmp, outdir / name)


def _parse_seeds(args) -> list[int] | None:
    """The seeds ``--seed``/``--seeds`` ask for, or None for the config's."""
    if args.seeds is not None and args.seed is not None:
        raise ValueError("--seed and --seeds are mutually exclusive")
    if args.seeds is None:
        seeds = None if args.seed is None else [args.seed]
    else:
        lo, sep, hi = args.seeds.partition("..")
        if not sep:
            raise ValueError(f"--seeds expects A..B, got {args.seeds!r}")
        a, b = int(lo), int(hi)
        if b < a:
            raise ValueError(f"--seeds range is empty: {args.seeds!r}")
        seeds = list(range(a, b + 1))
    if seeds and seeds[0] < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {seeds[0]}")
    return seeds


def _load(path):
    """The validated config, or None after printing why it is not one."""
    try:
        return load_scenario(path)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
    except ValidationError as e:
        for where, reason in e.failures:
            print(f"{where}: {reason}", file=sys.stderr)
    return None


def cmd_validate(args) -> int:
    if _load(args.scenario) is None:
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load(args.scenario)
    if cfg is None:
        return EXIT_CONFIG

    try:
        seeds = _parse_seeds(args)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG

    runs = seeds if seeds is not None else [cfg.sim.seed]
    multi = args.seeds is not None  # a range, of any length, writes seed-N/
    for seed in runs:
        log.info("running %s with seed %d", cfg.name, seed)
        try:
            result = run_scenario(cfg, seed=seed)
            # stage everything before any file is created
            staged = {
                "metrics.csv": render_csv(result.rows),
                "summary.json": render_summary(result),
                "events.log": render_events(result.events),
            }
        except Exception as e:  # no partial outputs on failure
            log.debug("run failed", exc_info=True)
            print(f"run failed (seed {seed}): {e}", file=sys.stderr)
            return EXIT_RUNTIME
        outdir = args.out / f"seed-{seed}" if multi else args.out
        try:
            _write_outputs(outdir, staged)
        except OSError as e:
            log.debug("write failed", exc_info=True)
            print(f"run failed (seed {seed}): {e}", file=sys.stderr)
            return EXIT_RUNTIME
        delivered = sum(m["delivered_bits"] for m in result.report.per_flow.values())
        print(
            f"{cfg.name} seed={seed} slots={result.report.slots} "
            f"delivered_bits={_fmt_cell(delivered)} -> {outdir}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
