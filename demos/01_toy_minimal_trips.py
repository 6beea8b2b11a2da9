"""Minimal trips and occupancy rates on a toy you can verify by hand.

Three nodes, three timed links. Aggregated at the finest scale every
link sits in its own snapshot and the relay a-b then b-c is the fastest
way from a to c; aggregated into one window everything collapses to
single-link trips with occupancy 1.
"""

from streamscale import (aggregate, minimal_trip_sweep, parse_tsv,
                         scan_minimal_trips)

stream = parse_tsv("a b 0\nb c 1\na c 3\n")
print(stream)

for K in (4, 2, 1):
    series = aggregate(stream, K)
    trips = []

    def sink(us, vs, deps, arrs, hops):
        for u, v, dep, arr, h in zip(us.tolist(), vs.tolist(), deps.tolist(),
                                     arrs.tolist(), hops.tolist()):
            trips.append((stream.labels[u], stream.labels[v], dep, arr, h))

    scan_minimal_trips(series, sink)
    _, agg = minimal_trip_sweep(series)
    print(f"\nK={K} (window length {series.delta_seconds:g}s)")
    for u, v, dep, arr, hops in sorted(trips):
        dur = arr - dep + 1
        print(f"  {u}->{v} departs {dep} arrives {arr} hops={hops} "
              f"occupancy={hops}/{dur}")
    print(f"  mean distance in time: {agg.mean_d_time:.3f} snapshots"
          f" ({agg.mean_d_time_abs:g}s absolute)")
