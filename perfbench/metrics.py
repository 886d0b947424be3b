"""Metric definitions.  BENCHMARK.json lists the same names, units and
directions; ``moves`` records, before any measurement, which end-to-end
metric a per-layer metric should move and on which workload."""
from __future__ import annotations

# the library's modules, one layer each
LAYERS = ("fields", "kernels", "integrate", "diagnostics", "evanescent",
          "eikonal", "cli")

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),        # one pass over the workload's operations
    ("op_p50_s", "s", "lower"),      # median latency of one library/CLI call
    ("op_tail_s", "s", "lower"),     # benchstats.tail: >= 10 samples beyond
    ("setup_s", "s", "lower"),       # import + potential construction + warm-up
    ("peak_rss_mb", "MB", "lower"),
    ("err_max", "rel", "lower"),     # largest relative error vs closed form
]

# name, unit, better, moves
PER_LAYER = [
    ("fields.value_calls", "count", "lower", "evanesce-2d wall_s, then recon-action wall_s"),
    ("fields.gradient_calls", "count", "lower", "evanesce-2d wall_s, then recon-action wall_s"),
    ("fields.hessvec_calls", "count", "lower", "evanesce-2d wall_s, then recon-action wall_s"),
    ("fields.points", "count", "lower", "evanesce-2d wall_s, then recon-action wall_s"),
    ("fields.busy_s", "s", "lower", "evanesce-2d wall_s, then recon-action wall_s"),
    ("kernels.assemble_grad_calls", "count", "lower", "recon-action wall_s; catalog-cli op_tail_s; flat on evanesce-2d"),
    ("kernels.assemble_value_calls", "count", "lower", "recon-action wall_s; catalog-cli op_tail_s; flat on evanesce-2d"),
    ("kernels.assemble_busy_s", "s", "lower", "recon-action wall_s; catalog-cli op_tail_s; flat on evanesce-2d"),
    ("kernels.assemble_us_per_call", "us", "lower", "recon-action wall_s; catalog-cli op_tail_s; flat on evanesce-2d"),
    ("kernels.el_residual_calls", "count", "lower", "recon-action wall_s; catalog-cli op_tail_s; flat on evanesce-2d"),
    ("integrate.orbits", "count", "lower", "evanesce-2d wall_s; zero on recon-action"),
    ("integrate.steps_accepted", "count", "lower", "evanesce-2d wall_s; zero on recon-action"),
    ("integrate.steps_rejected", "count", "lower", "evanesce-2d wall_s; zero on recon-action"),
    ("integrate.accept_ratio", "ratio", "higher", "evanesce-2d wall_s"),
    ("integrate.self_s", "s", "lower", "evanesce-2d wall_s"),
    ("evanescent.action_solves", "count", "lower", "recon-action wall_s; catalog-cli op_tail_s"),
    ("evanescent.action_iters", "count", "lower", "recon-action wall_s; catalog-cli op_tail_s"),
    ("evanescent.action_converged_frac", "ratio", "higher", "recon-action wall_s; catalog-cli op_tail_s"),
    ("evanescent.armijo_accept_ratio", "ratio", "higher", "recon-action wall_s; catalog-cli op_tail_s"),
    ("evanescent.action_self_s", "s", "lower", "recon-action wall_s; catalog-cli op_tail_s"),
    ("evanescent.shoot_solves", "count", "lower", "evanesce-2d wall_s"),
    ("evanescent.shoot_orbits_per_solve", "count", "lower", "evanesce-2d wall_s"),
    ("evanescent.shoot_self_s", "s", "lower", "evanesce-2d wall_s"),
    ("evanescent.cross_validate_s", "s", "lower", "evanesce-2d wall_s"),
    ("eikonal.points", "count", "lower", "recon-action wall_s"),
    ("eikonal.points_converged", "count", "higher", "recon-action wall_s"),
    ("eikonal.horizon_retries", "count", "lower", "recon-action wall_s"),
    ("eikonal.self_s", "s", "lower", "recon-action wall_s"),
    ("diagnostics.checks", "count", "lower", "catalog-cli op_p50_s"),
    ("diagnostics.busy_s", "s", "lower", "catalog-cli op_p50_s"),
    ("cli.self_s", "s", "lower", "catalog-cli op_p50_s"),
    ("cli.artifact_bytes", "bytes", "lower", "catalog-cli op_p50_s"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
]

# per-layer metrics that count work; two traced passes on one seed must
# produce identical values
EXACT = [name for name, unit, _, _ in PER_LAYER if unit in ("count", "bytes")]
