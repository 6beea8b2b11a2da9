"""End-to-end run on a real interaction dataset (KONECT edge list).

Point STREAMSCALE_DATA (or ./data) at a directory holding a KONECT-style
file such as out.opsahl-ucsocial (UC Irvine messages: 1 899 users'
timestamped messages; the analysis-ready slice has 1 509 active users)
and this script reproduces the full analysis: summary, saturation-scale
sweep with all metrics, and the loss validation at the selected scale.

Equivalent CLI:
    streamscale sweep --input out.opsahl-ucsocial --format konect \
        --directed --grid log:40 --classic --out-dir irvine_out
    streamscale validate --input out.opsahl-ucsocial --format konect \
        --directed --at-gamma --grid log:40
"""

import os
import sys
from pathlib import Path

from streamscale import (aggregate, enumerate_shortest_transitions,
                         lost_fraction, mean_elongation, parse_konect,
                         run_sweep, stream_summary)

roots = [Path(os.environ.get("STREAMSCALE_DATA", "data")), Path("data")]
candidates = ["out.opsahl-ucsocial", "opsahl-ucsocial"]
path = next((r / c for r in roots for c in candidates if (r / c).exists()), None)
if path is None:
    sys.exit("dataset not found: set STREAMSCALE_DATA or place "
             "out.opsahl-ucsocial under ./data")

stream = parse_konect(path.read_text(), directed=True)
s = stream_summary(stream)
print(f"{stream}: {s.activity_per_person_day:.2f} messages/person/day "
      f"over {s.horizon_days:.1f} days")

report = run_sweep(stream, points=40)
for metric, g in sorted(report.gamma.items()):
    print(f"  gamma[{metric:<10}] = {g['delta_s'] / 3600:.1f} h")

k_gamma = report.gamma["mk"]["K"]
transitions = enumerate_shortest_transitions(stream)
lost = lost_fraction(stream, k_gamma, transitions)
elong = mean_elongation(stream, aggregate(stream, k_gamma))
print(f"at gamma: {lost:.0%} of shortest transitions lost, "
      f"mean elongation {elong.mean:.2f} "
      f"({elong.samples} trips{' sampled' if elong.sampled else ''})")
