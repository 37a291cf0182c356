"""The repo benchmark: seven named workloads, one command.

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
measures one workload and prints every metric by name with its unit; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, measured with tracing off; ``--trace 1`` is a
separate run that reports the per-layer metrics and writes a Chrome trace
to ``bench/out/``.  Without ``--workload`` every workload runs:
``--check`` at 1/50 length with every assertion and output check on,
``--agree`` as two full sets whose end-to-end metrics must agree within
their bounds.  See ``bench/README.md``.

A run launches its workload several times, **each launch in a fresh
process** measuring an equal share of ``--seconds``, and reports the
median over launches.  Besides giving ``setup_s`` its several samples,
this is what makes the figures repeat: whatever a process's address-space
layout decides (it differs from process to process and every rank forked
from the process inherits it) moves a launch's median step by +-4 %, and
one launch can sit in a slow scheduling regime for its whole life.  A
median over independent launches shrugs both off; a longer single launch
does not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no src/repro under {ROOT}; the benchmark "
             f"measures the program in this checkout and cannot run alone")
# `bench` imports as a package (its trace.py must not shadow the standard
# library's), `repro` straight from the checkout's source tree
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import common, compile_cold, prmi, probes, streams  # noqa: E402
from bench.trace import self_times_ms, write_chrome_trace  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = Path(__file__).resolve().parent / "out"

RUNNERS = {**dict.fromkeys(streams.SPECS, streams.run),
           "compile_cold": compile_cold.run,
           "prmi_batched": prmi.run_batched,
           "prmi_parallel_arg": prmi.run_parallel_arg}
#: Launches per end-to-end run.  A launch of the 256 MiB and compile
#: workloads costs seconds before it measures anything, so they get three;
#: the others are noisier and launch in milliseconds, so they get five.
LAUNCHES = {name: 3 if name in ("stream_large", "stream_rma", "compile_cold")
            else 5 for name in RUNNERS}


# -- one launch, in this process -------------------------------------------------

def launch(name: str, seed: int, seconds: float, trace: bool,
           process_launched: float) -> dict:
    # shared_memory starts this helper process on first use and keeps it
    # for the life of the interpreter; it is not a leak
    resource_tracker.ensure_running()
    shm0, kids0 = common.shm_segments(), common.child_pids()
    common.settle_allocator()
    out = RUNNERS[name](name, seed, seconds, trace, process_launched)
    leaked = common.shm_segments() - shm0
    orphans = common.child_pids() - kids0
    out.attempted += 2
    if leaked:
        out.failures.append(f"leaked /dev/shm segments: {sorted(leaked)}")
    if orphans:
        out.failures.append(f"orphan child processes: {sorted(orphans)}")

    p50 = common.median(out.samples_ms)
    ops_per_s = len(out.ends) / (out.ends[-1] - out.start)
    out.notes["ops_per_s (ungated)"] = round(ops_per_s, 3)
    if "wire_bytes" in out.notes:
        out.notes["wire_gbps"] = round(out.notes["wire_bytes"] / p50 / 1e6, 4)
    if trace:
        out.layers["ops_per_s"] = ops_per_s
    return {
        "end_to_end": {"setup_s": out.setup_s, "op_ms_p50": p50,
                       "peak_rss_mb": common.peak_rss_mb()},
        "per_layer": _per_layer(name, out) if trace else {},
        "op": out.op, "samples": len(out.samples_ms),
        "tail_ms": common.percentile(
            out.samples_ms, 0.90 if len(out.samples_ms) < 1000 else 0.99),
        "attempted": out.attempted, "failures": out.failures,
        "notes": out.notes}


def _per_layer(name: str, out: common.Outcome) -> dict:
    layers = dict(out.layers)
    layers["host.memcpy_gbps"] = probes.memcpy_gbps()
    layers["host.queue_rtt_us"] = probes.queue_rtt_us()
    layers["host.fork_ms"] = probes.fork_ms()
    if layers.get("wire_gbps"):
        layers["stream.roofline_frac"] = \
            layers["wire_gbps"] / layers["host.memcpy_gbps"]
    OUT.mkdir(exist_ok=True)
    write_chrome_trace(OUT / f"{name}.trace.json", out.spans)
    (OUT / f"{name}.record.json").write_text(json.dumps(
        {"workload": name, "host": probes.host_fingerprint(),
         "per_layer": layers}, indent=1))
    out.notes["trace"] = f"bench/out/{name}.trace.json"
    out.notes["self time per span name, ms"] = {
        k: round(v, 2) for k, v in sorted(self_times_ms(out.spans).items())}
    return layers


# -- one run: several launches, each in its own process ---------------------------

def _spawn_launch(name: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--launched", repr(common.now())]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode or not proc.stdout.strip():
        sys.exit(f"{name}: launch failed (exit {proc.returncode})\n"
                 f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 launches: int | None = None) -> dict:
    """Measure one workload, print its metrics, return the result object."""
    count = launches or (1 if trace else LAUNCHES[name])
    parts = [_spawn_launch(name, seed, seconds / count, trace)
             for _ in range(count)]
    if trace:
        values, wanted = parts[0]["per_layer"], CONTRACT["per_layer"]
    else:
        values = {key: common.median([p["end_to_end"][key] for p in parts])
                  for key in parts[0]["end_to_end"]}
        # a peak is a peak: whether a launch needed its one 42.7 MiB
        # fallback buffer is timing, and the median would flip between both
        values["peak_rss_mb"] = max(
            p["end_to_end"]["peak_rss_mb"] for p in parts)
        wanted = CONTRACT["end_to_end"]
    metrics = {}
    for spec in wanted:
        # a layer the workload never enters spent no time and counted
        # nothing there: it reads 0; a counter that could not be read is null
        value = values.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:44s} "
              f"{'null' if value is None else format(value, '.6g'):>12s} "
              f"{spec['unit']}")
    print(f"  note  launches = {count}, {parts[0]['op']}s sampled = "
          f"{sum(p['samples'] for p in parts)}")
    tails = [p["tail_ms"] for p in parts if p["tail_ms"] is not None]
    if tails:
        print(f"  note  tail.op_ms (ungated) = {common.median(tails):.4f}")
    for key, value in parts[-1]["notes"].items():
        print(f"  note  {key} = {value}")
    failures = [line for p in parts for line in p["failures"]]
    for line in failures:
        print(f"  FAIL  {line}")
    attempted = sum(p["attempted"] for p in parts)
    return {"correct": not failures, "attempted": attempted,
            "failed": min(len(failures), attempted), "metrics": metrics}


# -- every workload ----------------------------------------------------------------

def run_set(seed: int, seconds: float, traces=(0, 1),
            launches: int | None = None) -> dict:
    results = {}
    for spec in CONTRACT["workloads"]:
        for trace in traces:
            print(f"== {spec['name']}  --seed {seed} --seconds {seconds:g} "
                  f"--trace {trace}", flush=True)
            results[(spec["name"], trace)] = run_workload(
                spec["name"], seed, seconds, bool(trace), launches)
    return results


def _all_correct(results: dict) -> bool:
    bad = [key for key, r in results.items() if not r["correct"]]
    for name, trace in bad:
        print(f"INCORRECT: {name} --trace {trace}")
    return not bad


def agree(seed: int, seconds: float) -> bool:
    """Two full sets of the same commit, back to back; every end-to-end
    metric of the second must be within its bound of the first."""
    first = run_set(seed, seconds, traces=(0,))
    second = run_set(seed + 1, seconds, traces=(0,))
    ok = _all_correct(first) and _all_correct(second)
    print(f"\n{'workload':20s} {'metric':14s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for (name, _), res in first.items():
        for spec in CONTRACT["end_to_end"]:
            a = res["metrics"][spec["name"]]["value"]
            b = second[(name, 0)]["metrics"][spec["name"]]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            flag = "" if worse <= spec["bound"] else "  OUTSIDE"
            ok = ok and not flag
            print(f"{name:20s} {spec['name']:14s} {a:12.5g} {b:12.5g} "
                  f"{worse:+9.3f} {spec['bound']:6.2f}{flag}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=float(CONTRACT["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="every workload at 1/50 length, all checks on")
    ap.add_argument("--agree", action="store_true",
                    help="two full sets; fail if they disagree")
    ap.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.launched is not None:        # one launch, spawned by run_workload
        print(json.dumps(launch(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.launched)))
        return 0
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.agree:
        return 0 if agree(args.seed, args.seconds) else 1
    if args.check:                       # one short launch of everything
        results = run_set(args.seed, args.seconds / 50, launches=1)
    else:
        results = run_set(args.seed, args.seconds)
    return 0 if _all_correct(results) else 1


if __name__ == "__main__":
    sys.exit(main())
