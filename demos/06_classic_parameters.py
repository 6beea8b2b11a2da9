"""Why classical snapshot statistics cannot locate the saturation scale.

Density, largest connected component, non-isolated nodes and the
temporal distances all drift smoothly and monotonically from one extreme
to the other as the window grows - no kink marks the scale where
propagation properties break. Contrast with the occupancy signal of
demo 02, which rises and falls around a clear maximum.
"""

from streamscale import (UniformSpec, aggregate, classic_stats, delta_grid,
                         gen_uniform, minimal_trip_sweep)

stream = gen_uniform(UniformSpec(node_count=20, links_per_pair=10,
                                 horizon=15_000, seed=3))
print(stream)
print("\n  K      window(s)   density  largest_cc  d_hops  d_time_abs(s)")
for K in delta_grid(stream, 10):
    series = aggregate(stream, K)
    _, agg = minimal_trip_sweep(series)
    st = classic_stats(series, aggregates=agg)
    print(f"  {K:>6} {series.delta_seconds:>10.1f} {st.mean_density:>9.5f} "
          f"{st.mean_largest_cc:>11.2f} {st.mean_d_hops:>7.3f} "
          f"{st.mean_d_time_abs:>12.1f}")
