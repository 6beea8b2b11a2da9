"""Quantifying what an aggregation window destroys.

Two loss measures along the window grid: the share of the stream's
shortest transitions (two-hop minimal trips) falling inside one window -
their ordering, hence the implied reachability, is lost - and the mean
elongation factor of the surviving series trips against the fastest
stream realization in the same absolute window. Both stay near their
ideal values for small windows and take off around the saturation scale.
"""

from streamscale import (UniformSpec, aggregate, delta_grid,
                         enumerate_shortest_transitions, gen_uniform,
                         lost_fraction, mean_elongation, run_sweep)

stream = gen_uniform(UniformSpec(node_count=20, links_per_pair=12,
                                 horizon=20_000, seed=11))
transitions = enumerate_shortest_transitions(stream)
print(f"{stream} with {len(transitions)} shortest transitions")

gamma_K = run_sweep(stream, points=20).gamma["mk"]["K"]

print("\n  K      window(s)  lost_fraction  mean_elongation")
for K in delta_grid(stream, 10):
    lost = lost_fraction(stream, K, transitions)
    series = aggregate(stream, K)
    elong = mean_elongation(stream, series, seed=0)
    elong_s = f"{elong.mean:.3f}" if elong.samples else "   -"
    marker = " <-- gamma region" if K == gamma_K else ""
    print(f"  {K:>6} {series.delta_seconds:>10.1f} {lost:>13.3f} {elong_s:>14}{marker}")
