"""The per-destination minimal-trip DP, jitted when numba is present.

``column_sweep`` is the optional accelerator of
:func:`streamscale.reach.minimal_trip_sweep` (``engine="numba"``); the
numpy engine in :mod:`streamscale.reach` computes the same results and is
what runs without numba.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func
        return wrap


@njit(cache=True, nogil=True)
def column_sweep(n, K, snap_ids, snap_ptr, edge_src, edge_dst, cols):
    """Backward DP toward each destination in ``cols``, O(n) state per column.

    Snapshots come as a CSR layout over the non-empty snapshot ids with
    per-direction edges grouped by snapshot and sorted by source. Returns
    the emitted (hops, duration) samples as combined keys
    hops*(K+1)+duration plus per-column exact distance sums
    (sum_d_time, sum_d_hops, finite_triples).
    """
    sentinel = K + 1
    hop_inf = K + 2
    C = cols.size
    ea = np.empty(n, dtype=np.int64)
    hp = np.empty(n, dtype=np.int64)
    rend = np.empty(n, dtype=np.int64)
    ub_x = np.empty(n, dtype=np.int64)
    ub_a = np.empty(n, dtype=np.int64)
    ub_h = np.empty(n, dtype=np.int64)
    sum_dt = np.zeros(C, dtype=np.int64)
    sum_dh = np.zeros(C, dtype=np.int64)
    fin = np.zeros(C, dtype=np.int64)
    keys = np.empty(1024, dtype=np.int64)
    nkeys = 0
    for ci in range(C):
        v = cols[ci]
        for x in range(n):
            ea[x] = sentinel
            hp[x] = 0
            rend[x] = K
        for si in range(snap_ids.size - 1, -1, -1):
            k = snap_ids[si]
            hi = snap_ptr[si + 1]
            ucnt = 0
            i = snap_ptr[si]
            while i < hi:
                x = edge_src[i]
                best_a = sentinel
                best_h = hop_inf
                while i < hi and edge_src[i] == x:
                    w = edge_dst[i]
                    if w == v:
                        # direct edge arrives at k, earlier than any relay
                        best_a = k
                        best_h = 1
                    else:
                        a = ea[w]
                        if a < best_a:
                            best_a = a
                            best_h = hp[w] + 1
                        elif a == best_a and a != sentinel and hp[w] + 1 < best_h:
                            best_h = hp[w] + 1
                    i += 1
                if x == v:
                    continue
                na = ea[x]
                nh = hp[x]
                if best_a < na:
                    na = best_a
                    nh = best_h
                elif best_a == na and na != sentinel and best_h < nh:
                    nh = best_h
                if na != ea[x] or nh != hp[x]:
                    ub_x[ucnt] = x
                    ub_a[ucnt] = na
                    ub_h[ucnt] = nh
                    ucnt += 1
            # apply after the whole snapshot: same-snapshot edges cannot chain
            for r in range(ucnt):
                x = ub_x[r]
                na = ub_a[r]
                nh = ub_h[r]
                olda = ea[x]
                if olda != sentinel:
                    cnt = rend[x] - k
                    sum_dt[ci] += cnt * (2 * (olda + 1) - (k + 1 + rend[x])) // 2
                    sum_dh[ci] += cnt * hp[x]
                    fin[ci] += cnt
                rend[x] = k
                if na < olda:
                    if nkeys == keys.size:
                        grown = np.empty(keys.size * 2, dtype=np.int64)
                        grown[:nkeys] = keys
                        keys = grown
                    keys[nkeys] = nh * (K + 1) + (na - k + 1)
                    nkeys += 1
                ea[x] = na
                hp[x] = nh
        for x in range(n):
            if x != v and ea[x] != sentinel:
                r_ = rend[x]
                sum_dt[ci] += r_ * (2 * (ea[x] + 1) - (1 + r_)) // 2
                sum_dh[ci] += r_ * hp[x]
                fin[ci] += r_
    return keys[:nkeys], sum_dt, sum_dh, fin
