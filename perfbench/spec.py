"""What the benchmark runs and reports: workloads, metric names and units.

BENCHMARK.json at the repository root mirrors this file; `run.py --smoke`
checks that the two agree.
"""

# Set in every workload process before numpy is imported; pool workers
# inherit them through the environment.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# CLI workloads: `fuzzysphere verify --suite all` on a truncation range.
# `lam` is (measured size, smoke size).  sphere-pool repeats the sphere-all
# input with a process pool, so sphere-all is its serial baseline.
CLI_WORKLOADS = {
    "sphere-all": {"d": 2, "jobs": 1, "lam": ("1..9", "1..3")},
    "circle-all": {"d": 1, "jobs": 1, "lam": ("1..16", "1..3")},
    "sphere-pool": {"d": 2, "jobs": 2, "lam": ("1..9", "1..3")},
}

# Random hermitian tridiagonals as in acceptance criterion 5:
# (measured count, smoke count) matrices, their sizes n cycling through [2, 16).
TRIDIAG_MATRICES = (28, 10)

# Host-speed probe (workload.host_probe_s), run just before and just after
# each measured call: on each CPU in turn, PROBE_REPEATS rounds of a
# PROBE_LOOP-step Python loop plus PROBE_EIGH 40x40 complex eighs.  A time
# t is reported in reference seconds, t * PROBE_REF_S / probe.  PROBE_REF_S
# only fixes the scale: it is about the probe's 10th percentile on a 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4, OpenBLAS on one thread), i.e. what
# the probe takes there at full speed.
PROBE_REPEATS = 3
PROBE_LOOP = 40000
PROBE_EIGH = 16
PROBE_REF_S = 0.020

WORKLOADS = ("sphere-all", "circle-all", "tridiag-batch", "sphere-pool")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}

_FIELD_UNITS = {"calls": "count", "s": "s", "rows": "count",
                "eigh_calls": "count",
                # derived from argument sizes, not measured
                "bytes": "B_computed", "flops": "flop_computed"}

_LAYER_FIELDS = (
    ("sphere.build_sphere", ("calls", "s", "bytes")),
    ("sphere.verify_sphere_relations", ("s",)),
    ("lierep.verify_so4_reconstruction", ("s",)),
    ("lierep.rotation_operator", ("calls", "s")),
    ("coherent.verify_identity_resolution_sphere", ("calls", "s")),
    ("coherent.minimize_dispersion", ("calls", "s", "eigh_calls")),
    ("coherent.dispersion", ("calls", "s")),
    ("coherent.check_heisenberg_circle", ("s",)),
    ("circle.build_circle", ("s",)),
    ("circle.verify_circle_relations", ("s",)),
    ("lierep.verify_su2_reconstruction", ("s",)),
    ("spectral.eig_bisection", ("calls", "s")),
    ("spectral.spectrum_invariance_under_phases", ("s",)),
    ("spectral.circle_diag_report", ("s",)),
    ("spectral.sphere_diag_report", ("s",)),
    ("sturm.bisect_all", ("calls", "s", "rows")),
    ("linop.hermitian_eig", ("calls", "s")),
    ("linop.expm_hermitian_generator", ("calls", "s")),
    ("numpy.linalg.eigh", ("calls", "s", "flops")),
)

PER_LAYER = {f"{layer}.{f}": _FIELD_UNITS[f]
             for layer, fields in _LAYER_FIELDS for f in fields}
PER_LAYER.update({
    "cli.tasks": "count",
    "cli.task_max_s": "s",
    "cli.pool_util": "ratio",
    "trace.overhead_s": "s",
})

HIGHER_IS_BETTER = {"pass_ratio", "cli.tasks", "cli.pool_util"}
