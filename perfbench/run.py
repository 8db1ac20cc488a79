"""rrmsim benchmark: host time per simulated slot, end to end and per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload small_packet_lb --seed 1 --seconds 20 --trace 0

rrmsim is a batch simulator, so the load is neither an open nor a closed
loop: a workload is a fixed amount of simulated work (slots x UEs x cells),
run back to back in this one process with no extra threads, one run at a time,
and timed as host time per simulated slot. Inputs come from ``--seed`` (it is
also the run seed); the same seed gives the same inputs and, because the
simulator is deterministic, the same output bytes.

Workloads (why each was chosen):

  small_packet_lb  the shipped two_cell_load_balance.yaml as written: 2,600
                   slots x 10 UEs x 2 cells, 311-bit full-buffer packets and
                   load-balance handovers. About 10 PDUs per flow per slot, so
                   per-packet work (pdcp routing and reordering, traffic) leads.
  dense_embb       built in code with scenario_from_dict from the seed: 200
                   slots x 200 moving UEs x 16 macros of 100 PRBs, 6,000-bit
                   full-buffer eMBB, hotspot placement, load-balance steering
                   every 10 slots that hands UEs over. Stresses PF fill,
                   per-PRB grants and checks, per-pair channel work, the
                   O(U^2) scans and steering.
  shipped_mix      the other five shipped scenarios at their own horizons,
                   back to back (7,100 slots, at most 12 UEs and 3 cells each).
                   Per-call overhead dominates; covers contention and backoff,
                   SPS, slices, DSS re-split, dual connectivity, duplication
                   with drop_prob > 0 and reordering.

End-to-end metrics (--trace 0). The workload is repeated for as many times
as fit in --seconds, at least MIN_REPS; every repetition does identical work.
Each World.step_slot call, each output pass and each set-up is timed from
outside. The 2-vCPU host the bounds were set on changes speed by up to 2x
within seconds, with the load of its other tenants. So the benchmark also
takes samples of a fixed probe that shares nothing with rrmsim (plain Python,
numpy scalar reads, text rendering, small allocations): after fixed slots
about 5 ms apart, around each output pass and around each set-up. A sample
is the faster of two probe calls made back to back after an untimed one, so
it follows the host, not what rrmsim left in the caches. Each timed piece of work is scaled
by PROBE_REFERENCE_US over the mean of the samples taken right before and
after it: host time at a reference speed. Each slot's time is then its
median over the repetitions (at most MAX_REPS), output time the median pass
and set-up time the median set-up. The mean samples and the unscaled figures
are printed with each result.

  setup_s          scenario build plus World construction (summed over a
                   workload's cases), median of SETUP_REPEATS set-ups
  run_us_per_slot  host us per simulated slot over the whole horizon (each
                   slot's median over repetitions)
  slot_us_p50/p95  distribution over the horizon of single slots (each the
                   median over repetitions); p95 shows the epoch-boundary
                   work (partitions, contention, steering)
  output_s         build the report, render metrics.csv, summary.json and
                   events.log with cli.render_*, write them
  peak_rss_mb      high-water resident memory of this process, read after
                   MIN_REPS repetitions, so it does not depend on how many fit

Runs that raise, or whose sha256 over the three rendered files differs from
the stored reference for that (workload, seed), or between two repetitions of
one seed, are failed runs: the result line's ``failed`` over ``attempted`` is
the failed-run ratio, and any failure makes ``correct`` false and the exit
code 1. A dense_embb repetition that hands no UE over fails too.
reference_digests.json holds the digests of the default seed (1) and of a
held-out seed (1009) for each workload. A seed with no stored reference is
checked for determinism, and the default seed is run once more, untimed,
against its reference. The model has no reference measurements in the
repository: it is unvalidated, and no accuracy figure is given.

The workloads and metrics measured, with their units, are the ones
BENCHMARK.json lists; what to measure is read from each metric's name.

Per-layer metrics (--trace 1): half of --seconds untraced, half with every
public function of each module wrapped from these files (tracer.py; nothing
in src/ is edited). Names are <module>.<function>.<stat>, stat being
calls_per_slot, self_us_per_slot (span minus traced child spans and the
tracer's own cost) or us_per_call, in raw host time. A function that no
longer exists is listed as absent and reported as 0. Which end-to-end
metric each layer metric should move:

  layer metrics                               moves            mostly on        little on
  pdcp.route_packet.*, pdcp.reorder_deliver.*, run_us_per_slot, small_packet_lb  dense_embb
    pdcp.reorder_tick.self_us_per_slot,       slot_us_p50
    traffic.gen_traffic.*,
    engine.step_slot.self_us_per_slot
  kernels.pf_fill.*, mac.schedule_dynamic.*   run_us_per_slot, dense_embb       small_packet_lb
    (+ candidates_per_call),                  slot_us_p50
    mac.run_slot.self_us_per_slot,
    core.AllocationMap.add.*,
    core.validate_allocation_map.self_us_per_slot
  kernels.counter_uniform.* (+ pairs_per_call), run_us_per_slot shipped_mix     dense_embb
    channel.fading_db_batch.*,
    abstraction.link_rate.*, abstraction.capacity_score.*
  channel.mean_sinr_db.calls_per_slot,        slot_us_p95,     dense_embb       shipped_mix
    channel.rsrp_dbm.*,                       run_us_per_slot
    uts.UtsController.step.us_per_call,
    uts.resolve_conflicts.us_per_call,
    mac.refresh_partitions.us_per_call
  mac.schedule_one_shot.*,                    slot_us_p95      shipped_mix      small_packet_lb
    kernels.classify_picks.*
  scenario.build_s, engine.World.init_s       setup_s          dense_embb       shipped_mix
  engine.build_report_s, cli.render_csv_s,    output_s,        small_packet_lb, shipped_mix
    cli.render_summary_s, cli.render_events_s peak_rss_mb      dense_embb

Also reported: <module>.self_us_per_slot for each module; the ratios
pdcp.delivered_per_received (delivered PDUs / reorder_deliver calls),
mac.rach_success_ratio and uts.applied_per_candidate, each printed with its
base; tracer.overhead_us_per_slot (traced minus untraced run_us_per_slot); and
kernels.<kernel>.us_per_call_<size>, each kernel timed alone at the sizes
benchmarks/compare_kernels.py uses.

Every result is printed with the host it ran on (Python and numpy versions,
nproc, kernel backend) and saved under perfbench/out/ with it; numbers from a
numba backend are not comparable with numpy ones. The spans of the last traced
repetition go to perfbench/out/trace-<workload>.npz. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"
MANIFEST = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
#: Set-ups per run for setup_s; one set-up takes milliseconds.
SETUP_REPEATS = 31
#: Timed repetitions per run at the least, so determinism is always checked;
#: peak_rss_mb is read once this many have run.
MIN_REPS = 2
#: Timed repetitions per run at the most. Slot times are kept per repetition
#: in arrays of this many rows, written whole when allocated, so memory does
#: not grow with how many repetitions fit.
MAX_REPS = 64
#: Reference time of one probe sample (workloads.probe_sample), in us: a unit,
#: about the fastest sample seen on 2 vCPUs of an Intel Xeon at 2.1 GHz, whose
#: samples swing between about 160 and 300 us with its other tenants' load.
#: Each timed piece of work is scaled by this over the mean of the samples
#: taken right before and after it.
PROBE_REFERENCE_US = 160.0
#: Per-layer stats of a traced function; any other ``<x>_per_call`` stat is
#: the mean size of a call (tracer.SIZES).
SPAN_STATS = ("calls_per_slot", "self_us_per_slot", "us_per_call")


def load_manifest() -> dict:
    """Workload names and (name, unit) of each metric: BENCHMARK.json is the
    one list of them, and run.py derives what to measure from the names."""
    if not MANIFEST.is_file():
        raise SystemExit(f"error: no {MANIFEST}")
    doc = json.loads(MANIFEST.read_text())
    return {
        "workloads": [w["name"] for w in doc["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in doc["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in doc["per_layer"]],
    }


def layers_of(per_layer: list) -> list[str]:
    """The traced modules: those with a ``<module>.self_us_per_slot`` metric."""
    return [n.split(".")[0] for n, _ in per_layer if n.count(".") == 1 and n.endswith(".self_us_per_slot")]


# ---------------------------------------------------------------------------
# host and program
# ---------------------------------------------------------------------------

def pin_host() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """Import rrmsim from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "rrmsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no rrmsim sources under {src}")
    sys.path.insert(0, str(src))
    import rrmsim

    if Path(rrmsim.__file__).resolve().parent != (src / "rrmsim").resolve():
        raise SystemExit(f"error: rrmsim imported from {rrmsim.__file__}, not {src}")
    return rrmsim


def host_record() -> dict:
    import numpy as np
    from rrmsim import kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": kernels.backend_name(),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Gate:
    """Counts attempted and failed repetitions and checks their digests."""

    def __init__(self, workload: str, references: dict):
        self.workload = workload
        self.references = references.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.seen: dict[int, dict] = {}

    def run(self, fn, seed: int):
        """Run one repetition; returns it, or None when it raised or its
        output differs from the reference or an earlier repetition."""
        self.attempted += 1
        gc.collect()
        try:
            rep = fn()
        except Exception:
            self.failed += 1
            print(f"failed: {self.workload} seed {seed} raised", file=sys.stderr)
            traceback.print_exc()
            return None
        expected = self.seen.setdefault(seed, rep.files)
        ref = self.references.get(str(seed))
        bad = _diff(expected, rep.files, "an earlier repetition")
        if ref is not None:
            bad += _diff(ref["files"], rep.files, "the stored reference")
        if bad:
            self.failed += 1
            for line in bad:
                print(f"failed: {self.workload} seed {seed}: {line}", file=sys.stderr)
            return None
        return rep


def _diff(expected: dict, got: dict, against: str) -> list[str]:
    names = sorted(set(expected) | set(got))
    return [f"{n} differs from {against}" for n in names if expected.get(n) != got.get(n)]


def timed_reps(gate: Gate, run_once, seed: int, seconds: float, min_reps: int, fold) -> int:
    """Repeat until the next repetition would overrun ``seconds``. Each good
    repetition is handed to ``fold`` and then dropped, so memory does not grow
    with how many fit. Returns how many were folded."""
    count = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = gate.run(run_once, seed)
        if rep is None:
            break
        count += 1
        fold(rep)
        del rep
        now = time.perf_counter()
        if count == MAX_REPS or (count >= min_reps and now - start + (now - t0) > seconds):
            break
    return count


class Sums:
    """Times of repetitions that do identical work: each slot's time in each
    repetition, raw and scaled by the probe samples around it; each output
    pass's seconds, raw and scaled; and seconds per output step, summed."""

    def __init__(self, slots: int):
        import numpy as np

        self.reps = 0
        self.slot_ns = np.full((MAX_REPS, slots), np.nan, dtype=np.float32)
        self.slot_ref_ns = np.full((MAX_REPS, slots), np.nan, dtype=np.float32)
        self.output_s: dict[str, float] = {}
        self.pass_s: list[float] = []
        self.pass_ref_s: list[float] = []
        self.probe_ns = 0
        self.probes = 0

    def fold(self, rep) -> None:
        import numpy as np

        ns = np.asarray(rep.slot_ns, dtype=np.float64)
        probe = np.asarray(rep.probe_ns, dtype=np.float64)
        after = np.searchsorted(rep.probe_at, np.arange(1, len(ns) + 1))
        self.slot_ns[self.reps] = ns
        self.slot_ref_ns[self.reps] = ns * (PROBE_REFERENCE_US * 2e3) / (probe[after - 1] + probe[after])
        self.reps += 1
        for timings, per_probe in zip(rep.output_s, rep.output_per_probe):
            self.pass_s.append(sum(timings.values()))
            self.pass_ref_s.append(per_probe * PROBE_REFERENCE_US * 1e3)
            for key, dt in timings.items():
                self.output_s[key] = self.output_s.get(key, 0.0) + dt
        self.probe_ns += sum(rep.probe_ns)
        self.probes += len(rep.probe_ns)

    def slot_us(self, scaled: bool):
        """Each slot's median us over the repetitions: the median, not the
        mean, so one slow repetition of a slot (a pause of the host) does
        not move the slot distribution's tail."""
        import numpy as np

        times = (self.slot_ref_ns if scaled else self.slot_ns)[: self.reps]
        return np.median(times, axis=0).astype(np.float64) / 1e3

    def mean_us_per_slot(self) -> float:
        """Raw us per slot over every repetition."""
        return float(self.slot_ns[: self.reps].mean(dtype="float64")) / 1e3

    def probe_us(self) -> float:
        """Mean probe sample taken among the slots."""
        return self.probe_ns / self.probes / 1e3


class TracedSums:
    """Tracer totals and report counts summed over traced repetitions."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.totals = None
        self.reps = 0
        self.slots = 0
        self.slot_ns = 0
        self.delivered = self.rach_ok = self.rach_all = self.applied = 0

    def run(self, run_once):
        self.tracer.clear()
        return run_once(self.tracer)

    def fold(self, rep) -> None:
        t = self.tracer.totals()
        self.totals = t if self.totals is None else {k: self.totals[k] + t[k] for k in t}
        self.reps += 1
        self.slots += rep.slots
        self.slot_ns += sum(rep.slot_ns)
        for report in rep.reports:
            self.delivered += sum(
                m["delivered_pdus"] for m in report.per_flow.values() if m["delivered_pdus"] is not None
            )
            self.rach_ok += report.rach_successes
            self.rach_all += report.rach_attempts
            self.applied += sum(report.steering_actions.values())


def setup_samples(workloads, cases) -> dict:
    """Seconds of each of SETUP_REPEATS set-ups of every case: per phase, in
    all, and in all with each case scaled by the probe samples taken right
    before and after its set-up; and the mean sample in us."""
    build, init, total_ref, probe_ns = [], [], [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        probe_ns.append(workloads.probe_sample())
        b = i = ref = 0.0
        for case in cases:
            db, di, _ = workloads.setup(case)
            probe_ns.append(workloads.probe_sample())
            b, i = b + db, i + di
            ref += (db + di) * PROBE_REFERENCE_US * 2e3 / (probe_ns[-2] + probe_ns[-1])
        build.append(b)
        init.append(i)
        total_ref.append(ref)
    return {
        "scenario.build_s": build,
        "engine.World.init_s": init,
        "setup_s": [b + i for b, i in zip(build, init)],
        "setup_ref_s": total_ref,
        "probe_us": statistics.mean(probe_ns) / 1e3,
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(setup: dict, sums: Sums, peak_mb: float, scaled: bool) -> dict:
    """Every end-to-end metric. ``scaled``: host time at the reference speed,
    each timed piece of work scaled by PROBE_REFERENCE_US over the mean of the
    probe samples taken right before and after it."""
    slot_us = sums.slot_us(scaled)
    return {
        "setup_s": statistics.median(setup["setup_ref_s" if scaled else "setup_s"]),
        "run_us_per_slot": float(slot_us.mean()),
        "slot_us_p50": percentile(slot_us, 50),
        "slot_us_p95": percentile(slot_us, 95),
        "output_s": statistics.median(sums.pass_ref_s if scaled else sums.pass_s),
        "peak_rss_mb": peak_mb,
    }


def _kernel_args(rng, name: str, size: str) -> tuple:
    """Inputs of one kernel case, drawn as compare_kernels.py draws them."""
    if name == "pf_fill":
        n_cand, n_prbs = (int(x) for x in size.split("x"))
        return (
            rng.random(n_cand), rng.uniform(200.0, 2000.0, size=n_cand),
            rng.uniform(0.0, 5e4, size=n_cand), n_prbs,
        )
    n = int(size[1:])
    if name == "counter_uniform":
        return 12345, rng.integers(0, 1 << 32, size=n), rng.integers(0, 1 << 32, size=n), 777
    if name == "classify_picks":
        return rng.integers(0, max(4, n // 8), size=n), max(4, n // 8)
    raise ValueError(f"no inputs known for kernel {name!r}")


def kernel_times(names: list[str], seed: int) -> dict:
    """us per call of each ``kernels.<kernel>.us_per_call_<size>`` metric, the
    kernel timed alone, fastest of 5 samples of >= 5 ms; None for a kernel
    the package no longer has."""
    import numpy as np
    from rrmsim import kernels

    rng = np.random.default_rng(seed)
    out = {}
    for metric in names:
        _, name, stat = metric.split(".")
        fn = getattr(kernels, name, None)
        if fn is None:
            out[metric] = None
            continue
        args = _kernel_args(rng, name, stat.removeprefix("us_per_call_"))
        inner = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(inner):
                fn(*args)
            if time.perf_counter() - t0 >= 5e-3:
                break
            inner *= 2
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn(*args)
            samples.append((time.perf_counter() - t0) / inner)
        out[metric] = min(samples) * 1e6
    return out


def _resolve_span(index: dict, prefix: str) -> int | None:
    """Span index of a metric prefix: ``<module>.<fn>`` or ``<module>.<Class>.<fn>``
    as named, else the one method ``<module>.<Class>.<fn>`` it abbreviates."""
    if prefix in index:
        return index[prefix]
    module, _, fn = prefix.partition(".")
    hits = [i for n, i in index.items() if n.count(".") == 2 and n.startswith(module + ".") and n.endswith("." + fn)]
    return hits[0] if len(hits) == 1 else None


def layer_metrics(names: list[str], layers: list[str], setup: dict, untraced: Sums, traced: TracedSums, seed: int):
    """Value of each per-layer metric named; None marks an absent function.
    Also returns each ratio's (numerator, denominator)."""
    tracer, totals, slots = traced.tracer, traced.totals, traced.slots
    index = {name: i for i, name in enumerate(tracer.names)}
    received = index.get("pdcp.reorder_deliver")
    candidates = index.get("uts.evaluate_features")
    bases = {
        "pdcp.delivered_per_received": (
            traced.delivered, None if received is None else int(totals["calls"][received])
        ),
        "mac.rach_success_ratio": (traced.rach_ok, traced.rach_all),
        "uts.applied_per_candidate": (
            traced.applied, None if candidates is None else int(totals["size"][candidates])
        ),
    }
    named = {
        "scenario.build_s": statistics.median(setup["scenario.build_s"]),
        "engine.World.init_s": statistics.median(setup["engine.World.init_s"]),
        "tracer.overhead_us_per_slot": (
            traced.slot_ns / traced.slots / 1e3 - untraced.mean_us_per_slot()
        ),
        **{key: total / len(untraced.pass_s) for key, total in untraced.output_s.items()},
        **{name: None if den is None else (num / den if den else 0.0) for name, (num, den) in bases.items()},
    }
    kernel_us = kernel_times([n for n in names if n.startswith("kernels.") and ".us_per_call_" in n], seed)

    values: dict[str, float | None] = {}
    for name in names:
        prefix, _, stat = name.rpartition(".")
        if name in named:
            values[name] = named[name]
        elif name in kernel_us:
            values[name] = kernel_us[name]
        elif prefix in layers and stat == "self_us_per_slot":
            ids = [i for i, n in enumerate(tracer.names) if n.split(".", 1)[0] == prefix]
            values[name] = float(sum(totals["self_ns"][i] for i in ids)) / 1e3 / slots if ids else None
        elif stat in SPAN_STATS or stat.endswith("_per_call"):
            i = _resolve_span(index, prefix)
            calls = None if i is None else float(totals["calls"][i])
            if calls is None:
                values[name] = None
            elif stat == "calls_per_slot":
                values[name] = calls / slots
            elif stat == "self_us_per_slot":
                values[name] = totals["self_ns"][i] / 1e3 / slots
            elif stat == "us_per_call":
                values[name] = totals["dur_ns"][i] / 1e3 / calls if calls else 0.0
            elif totals["size_bad"][i]:
                values[name] = None
            else:
                values[name] = totals["size"][i] / calls if calls else 0.0
        else:
            raise SystemExit(f"error: {MANIFEST} names per-layer metric {name!r}, which run.py cannot measure")
    return {k: None if v is None else float(v) for k, v in values.items()}, bases


def measure(args, manifest: dict, references: dict) -> dict:
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    out_dir = OUT / args.workload
    cases = workloads.cases(args.workload, args.seed)
    gate = Gate(args.workload, {} if args.record else references)
    shape = workloads.shape(cases)
    setup = setup_samples(workloads, cases)

    if not args.record and str(args.seed) not in gate.references:
        default_cases = workloads.cases(args.workload, DEFAULT_SEED)
        gate.run(lambda: workloads.run_repetition(default_cases, out_dir), DEFAULT_SEED)

    run_once = lambda tracer=None: workloads.run_repetition(cases, out_dir, tracer)  # noqa: E731
    untraced = Sums(shape["slots"])
    result = {"setup": setup, "gate": gate, "shape": shape, "untraced": untraced}

    def fold(rep) -> None:
        untraced.fold(rep)
        result["handovers"] = rep.handovers
        result["files"] = rep.files
        if untraced.reps <= MIN_REPS:
            result["peak_rss_mb"] = peak_rss_mb()

    if not args.trace:
        timed_reps(gate, run_once, args.seed, args.seconds, MIN_REPS, fold)
        return result

    from tracer import Tracer

    layers = layers_of(manifest["per_layer"])
    traced = result["traced"] = TracedSums(Tracer("rrmsim", layers))
    if timed_reps(gate, run_once, args.seed, args.seconds / 2, 1, fold):
        timed_reps(gate, lambda: traced.run(run_once), args.seed, args.seconds / 2, 1, traced.fold)
    if untraced.reps and traced.slots:
        names = [n for n, _ in manifest["per_layer"]]
        values, bases = layer_metrics(names, layers, setup, untraced, traced, args.seed)
        result.update(layer=values, bases=bases, layers=layers)
        traced.tracer.dump(
            OUT / f"trace-{args.workload}.npz",
            {"workload": args.workload, "seed": args.seed, "host": host_record()},
        )
    return result


def _module_shares(values: dict, layers: list[str]) -> dict:
    """Each module's share of the summed self time of every module."""
    selfs = {layer: values[f"{layer}.self_us_per_slot"] for layer in layers}
    selfs = {layer: us for layer, us in selfs.items() if us is not None}
    total = sum(selfs.values())
    return {layer: us / total for layer, us in selfs.items()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def record_reference(workload: str, seed: int, files: dict, references: dict) -> None:
    import workloads

    references.setdefault(workload, {})[str(seed)] = {
        "digest": workloads.combined_digest(files),
        "files": files,
    }
    REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")


def report(args, manifest: dict, result: dict, host: dict) -> dict:
    import workloads

    gate = result["gate"]
    untraced = result["untraced"]
    shape = result["shape"]
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(
        f"workload: {args.workload} seed={args.seed} slots={shape['slots']} "
        f"slot_ue_cells={shape['slot_ue_cells']} cases="
        + ",".join(f"{n}({s}x{u}x{c})" for n, (s, u, c) in shape["cases"].items())
    )
    if "files" in result:
        ref = gate.references.get(str(args.seed))
        state = "no stored reference for this seed" if ref is None else "matches stored reference"
        print(f"digest: {workloads.combined_digest(result['files'])} ({state})")
        print(f"handovers: {result['handovers']} per repetition")
    traced = result.get("traced")
    print(f"repetitions: {untraced.reps} untraced, {traced.reps if traced else 0} traced")
    print(f"failed_run_ratio: {gate.failed}/{gate.attempted} runs")
    print("model: unvalidated (no reference measurements in the repository; no accuracy figure)")

    metrics = {}
    if args.trace and "layer" in result:
        values = result["layer"]
        for name, unit in manifest["per_layer"]:
            value = values[name]
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
            print(f"  {name:<48} {'absent' if value is None else f'{value:.6g}':>14} {unit}")
        for name, (num, den) in result["bases"].items():
            print(f"  {name} = {num} / {den}")
        shares = sorted(_module_shares(values, result["layers"]).items(), key=lambda kv: -kv[1])
        accounted = sum(values[f"{layer}.self_us_per_slot"] or 0.0 for layer in result["layers"])
        print(
            f"  module self times sum to {accounted:.6g} us/slot "
            f"(untraced run: {untraced.mean_us_per_slot():.6g}); "
            "shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares)
        )
    elif not args.trace and untraced.reps:
        raw = end_to_end(result["setup"], untraced, result["peak_rss_mb"], scaled=False)
        values = end_to_end(result["setup"], untraced, result["peak_rss_mb"], scaled=True)
        probe_us = {"setup": result["setup"]["probe_us"], "run": untraced.probe_us()}
        result["speed"] = {"probe_us": probe_us, "raw": raw}
        print(
            f"speed: mean probe sample {probe_us['run']:.4g} us among slots, "
            f"{probe_us['setup']:.4g} us among set-ups; times scaled to {PROBE_REFERENCE_US} us"
        )
        print(f"  {'metric':<20} {'scaled':>14} {'raw':>14}")
        for name, unit in manifest["end_to_end"]:
            if name not in values:
                raise SystemExit(f"error: {MANIFEST} names end-to-end metric {name!r}, which run.py does not measure")
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<20} {values[name]:>14.6g} {raw[name]:>14.6g} {unit}")
        per_s = shape["slot_ue_cells"] / (values["run_us_per_slot"] * shape["slots"] / 1e6)
        print(f"  work rate            {per_s:>14.6g} slot*UE*cell per s at reference speed")
    return {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }


def build_parser(workloads: list[str]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input and run seed (>= 0)")
    p.add_argument("--seconds", type=float, default=35.0, help="measured window per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    p.add_argument(
        "--record",
        action="store_true",
        help="store this run's output digests as the reference for (workload, seed)",
    )
    return p


def main(argv=None) -> int:
    manifest = load_manifest()
    args = build_parser(manifest["workloads"]).parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    pin_host()
    import_program()
    host = host_record()
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one run at a time per checkout
        result = measure(args, manifest, references)
    line = report(args, manifest, result, host)
    if args.record and line["correct"]:
        record_reference(args.workload, args.seed, result["files"], references)
        print(f"recorded reference digests for {args.workload} seed {args.seed}")

    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"host": host, "speed": result.get("speed"), "args": vars(args), "result": line},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
