"""Names, units and directions of every metric, and what each layer moves.

``BENCHMARK.json`` at the repository root lists the same metrics; its keys
are fixed, so the per-layer -> end-to-end mapping lives here and in every
traced run record.
"""
from __future__ import annotations

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = (
    ("construct_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("table_s", "s", "lower", 0.25),
    ("zeros_s", "s", "lower", 0.25),
    ("session_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.1),
)

SUITES = ("base", "virtual", "deformed", "structural", "reflection", "ortho", "zeros",
          "positivity")

_CONSTRUCT_VERIFY = "construct_s, verify_s"


def _layer(names, unit, better, moves, on):
    return [(name, unit, better, moves, on) for name in names]


# name, unit, better, end-to-end metrics it should move, workloads it shows on
PER_LAYER = tuple(
    _layer(["exact.%s.calls" % g for g in ("mul", "addsub", "divide_exact", "eval_int",
                                            "det_laurent")],
           "count", "lower", _CONSTRUCT_VERIFY, "deep most, type1 next, sweep least")
    + _layer(["exact.%s.busy_s" % g for g in ("mul", "addsub", "divide_exact", "eval_int",
                                               "det_laurent")],
             "s", "lower", _CONSTRUCT_VERIFY, "deep most, type1 next, sweep least")
    + _layer(["exact.det_laurent.max_size"], "count", "lower", _CONSTRUCT_VERIFY,
             "deep most, type1 next, sweep least")
    + _layer(["exact.max_coeff_bits"], "bits", "lower", _CONSTRUCT_VERIFY,
             "deep most, type1 next, sweep least")
    + _layer(["darboux.multi_indexed_poly_y.calls"], "count", "lower", _CONSTRUCT_VERIFY,
             "deep; about 0 on type1, small on sweep")
    + _layer(["darboux.multi_indexed_poly_y.self_s", "darboux.denominator_poly_y.self_s",
              "darboux.residual_checks.busy_s"], "s", "lower", _CONSTRUCT_VERIFY,
             "deep; about 0 on type1, small on sweep")
    + _layer(["darboux.typeI_eigen_numerator.calls"], "count", "lower",
             "construct_s, verify_s, table_s", "type1; absent on deep")
    + _layer(["darboux.typeI_eigen_numerator.self_s"], "s", "lower",
             "construct_s, verify_s, table_s", "type1; absent on deep")
    + _layer(["base.groundstate_sq.calls", "verify.ortho.pair_sums", "verify.ortho.terms"],
             "count", "lower", "verify_s, table_s", "type1 and sweep; smaller on deep")
    + _layer(["base.groundstate_sq.busy_s", "verify.ortho.busy_s"], "s", "lower",
             "verify_s, table_s", "type1 and sweep; smaller on deep")
    + _layer(["verify.zeros.root_calls", "verify.zeros.distinct_levels"], "count", "lower",
             "verify_s, zeros_s", "deep; small on type1")
    + _layer(["verify.zeros.useful_ratio"], "ratio", "higher", "verify_s, zeros_s",
             "deep; small on type1")
    + _layer(["verify.zeros.polyroots_s"], "s", "lower", "verify_s, zeros_s",
             "deep; small on type1")
    + _layer(["verify.suite.%s_s" % s for s in SUITES], "s", "lower", "verify_s",
             "each workload")
    + _layer(["base.eigenpoly_y.calls", "virtual.virtual_poly_y.calls"], "count", "lower",
             "session_s, peak_rss_mb", "sweep; should not move on cold deep/type1")
    + _layer(["base.eigenpoly_y.busy_s", "virtual.virtual_poly_y.busy_s"], "s", "lower",
             "session_s, peak_rss_mb", "sweep; should not move on cold deep/type1")
    + _layer(["caches.hit_ratio"], "ratio", "higher", "session_s, peak_rss_mb",
             "sweep; should not move on cold deep/type1")
    + _layer(["caches.entries"], "count", "lower", "session_s, peak_rss_mb",
             "sweep; should not move on cold deep/type1")
    + [("cli.%s.self_s" % c, "s", "lower", "%s_s" % c, "all")
       for c in ("construct", "verify", "table", "zeros")]
    + _layer(["cli.output_bytes"], "bytes", "lower", "the matching command metric", "all")
    + _layer(["verify.checks"], "count", "higher", "(diagnostic)", "all")
    + _layer(["verify.checks_failed"], "count", "lower", "(diagnostic)", "all")
    + _layer(["trace.overhead_s"], "s", "lower", "(diagnostic)", "all")
)
