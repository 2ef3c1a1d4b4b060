"""The orchestrated verification suite and its machine-readable report.

Runs the full battery for one configuration, prints the summary, then shows
how the extended parameter range (b < 0) downgrades positivity failures to
warnings instead of failing the report.
"""
import json
from fractions import Fraction as F

from littleq import CType, Family, IndexSet, Params
from littleq.verify import run_suite

q, a, b = F(1, 2), F(1, 3), F(1, 16)
p = Params(Family.LQ_JACOBI, q, a, b, CType.TYPE_II, dmax=2)

report = run_suite(IndexSet.of(2), p, nmax=3, seed=0)
print("overall:", report.overall)
by_status = {}
for c in report.checks:
    by_status.setdefault(c.status, []).append(c.name)
for status, names in sorted(by_status.items()):
    print("%s: %d checks" % (status, len(names)))

print("\na few check lines:")
for c in sorted(report.checks, key=lambda c: c.name)[:6]:
    print("  %-44s %s  %s" % (c.name, c.status, c.witness))

print("\nJSON head:")
print(json.dumps(report.to_dict(), indent=2)[:400], "...")

# Extended range: b may be negative; positivity is no longer guaranteed,
# so a failed sign proof is reported as a warning rather than a failure.
ext = Params(Family.LQ_JACOBI, q, a, F(-1, 4), CType.TYPE_II, dmax=2)
rep_ext = run_suite(IndexSet.of(2), ext, nmax=2, suites=("deformed", "positivity"),
                    seed=0)
print("\nextended range b=-1/4: overall %s (strict_range=%s)"
      % (rep_ext.overall, ext.strict_range))
assert rep_ext.overall == "pass"
