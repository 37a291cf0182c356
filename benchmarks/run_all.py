#!/usr/bin/env python
"""Run every experiment report in DESIGN.md's index and print the
paper-shaped tables.  EXPERIMENTS.md is produced from this output.

Usage:  python benchmarks/run_all.py [E1 E5 ...]
        python benchmarks/run_all.py --smoke

An ID that names no experiment runs nothing and exits 2, naming it and
listing the known IDs.

``--smoke`` imports every experiment module and checks it still
exposes a callable ``report`` without running anything — the CI guard
that keeps new benchmarks from rotting unimported.
"""

import importlib.util
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).parent

EXPERIMENTS = [
    ("E1", "bench_fig1_mxn_problem"),
    ("E2", "bench_fig2_frameworks"),
    ("E3", "bench_fig3_paired_mxn"),
    ("E4", "bench_fig4_feature_table"),
    ("E5", "bench_fig5_sync_deadlock"),
    ("E6", "bench_schedule_reuse"),
    ("E7", "bench_descriptor_compactness"),
    ("E8", "bench_scalability_serialization"),
    ("E9", "bench_dataready_no_barrier"),
    ("E10", "bench_prmi_ghosts"),
    ("E11", "bench_oneway_overlap"),
    ("E12", "bench_converters_2n"),
    ("E13", "bench_mct_interpolation"),
    ("E14", "bench_icomm_descriptors"),
    ("E15", "bench_icomm_coordination"),
    ("E16", "bench_receiver_driven"),
    ("A1", "bench_ablation_fastpath"),
    ("A2", "bench_ablation_verify"),
    ("A3", "bench_pipeline_fusion"),
    ("A4", "bench_coupling_styles"),
    ("A5", "bench_schedule_scaling"),
    ("A6", "bench_pack_throughput"),
    ("A7", "bench_persistent_steady_state"),
    ("A8", "bench_multicore_scaling"),
    ("A9", "bench_rma_steady_state"),
    ("A11", "bench_prmi_serving"),
    ("A12", "bench_reconfigure"),
]


def load(module_name):
    spec = importlib.util.spec_from_file_location(
        module_name, HERE / f"{module_name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def smoke():
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    for exp_id, module_name in EXPERIMENTS:
        module = load(module_name)
        if not callable(getattr(module, "report", None)):
            print(f"{exp_id}: {module_name} has no callable report()")
            return 1
        print(f"{exp_id}: {module_name} imports, report() present")
    print(f"\n{len(EXPERIMENTS)} experiment modules import cleanly in "
          f"{time.perf_counter() - t0:.1f} s")
    return 0


def main():
    if "--smoke" in sys.argv[1:]:
        sys.exit(smoke())
    sys.path.insert(0, str(HERE))
    selected = set(sys.argv[1:])
    unknown = sorted(selected - {exp_id for exp_id, _ in EXPERIMENTS})
    if unknown:
        print(f"unknown experiment id(s): {' '.join(unknown)}; known: "
              f"{' '.join(exp_id for exp_id, _ in EXPERIMENTS)}",
              file=sys.stderr)
        sys.exit(2)
    t0 = time.perf_counter()
    for exp_id, module_name in EXPERIMENTS:
        if selected and exp_id not in selected:
            continue
        module = load(module_name)
        module.report()
    print(f"\nall experiments completed in "
          f"{time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
