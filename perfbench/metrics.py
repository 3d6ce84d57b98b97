"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names with their direction and bounds;
``test_perfbench.py`` checks that the two agree.
"""

# dimensions the reproduction simulates densely; d = 5 is called by no workload
TELEPORT_DIMS = (2, 3, 4)
DENSE_DIMS = (4,)
PROTOCOL_DIMS = (2, 3, 4)

# printed with --trace 0: medians over the run's fresh-process repetitions
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("evals_per_s", "1/s"),
]

# per-layer metrics of one traced repetition
LAYER_METRICS = [
    ("cli.run_reproduction.self_s", "s"),
    ("cli.artifact_bytes", "B"),
    ("bounds.asym_optimize.calls", "count"),
    ("bounds.asym_optimize.total_s", "s"),
    ("bounds.asym_optimize.max_gap", "1"),
    ("bounds.kay_feasibility_scan.total_s", "s"),
    ("bounds.kay_feasibility_scan.states", "count"),
    ("bounds.kay.min_residual", "1"),
    *[
        (f"teleport.fidelity.d{d}.{m}", u)
        for d in TELEPORT_DIMS
        for m, u in (("calls", "count"), ("total_s", "s"), ("max_s", "s"))
    ],
    *[
        (f"teleport.dense.d{d}.{m}", u)
        for d in DENSE_DIMS
        for m, u in (("flops_computed", "flop"), ("bytes_computed", "B"), ("gflop_per_s", "GFLOP/s"))
    ],
    ("teleport.composite_cross_check.self_s", "s"),
    ("qracse.run_protocol.calls", "count"),
    ("qracse.run_protocol.total_s", "s"),
    ("qracse.run_protocol.p50_us", "us"),
    ("qracse.run_protocol.p99_us", "us"),
    *[(f"qracse.run_protocol.d{d}.first_s", "s") for d in PROTOCOL_DIMS],
    ("qracse.max_normalisation_error", "1"),
    ("codes.search_tables.self_s", "s"),
    ("codes.search_tables.evaluations", "count"),
]

# the same layer metrics measured with OPENBLAS_NUM_THREADS=1
BLAS1_PREFIX = "blas1."

# metrics of the whole traced run
RUN_METRICS = [
    ("trace.overhead_s", "s"),
    ("trace.d3_slowdown_seen", "count"),
    ("fail_frac", "1"),
    ("env.blas_threads", "count"),
    ("env.nproc", "count"),
    ("env.src_lines", "count"),
]

# printed with --trace 1
PER_LAYER = LAYER_METRICS + [(BLAS1_PREFIX + n, u) for n, u in LAYER_METRICS] + RUN_METRICS
