"""Brute-force propagation-kernel reference.

Distributions live in plain dicts of python floats; propagation, binning,
and counting are all explicit loops.  Shares only the grid (the
quantization-offset function, ``_T_MAX`` and ``_BIN_WIDTH``, read at each
call so a test may patch them) with the production implementation.
"""

import math

from nnobf import similarity
from nnobf.similarity import quantization_offset


def _neighborhood(g, v):
    ns = {v}
    for a, b in g.edges:
        if a == v:
            ns.add(b)
        if b == v:
            ns.add(a)
    return sorted(ns)


def _raw(g1, g2, seed):
    t_max, width = similarity._T_MAX, similarity._BIN_WIDTH
    labels = sorted(set(g1.labels) | set(g2.labels))

    def init(g):
        return [{lab: (1.0 if g.labels[v] == lab else 0.0) for lab in labels}
                for v in range(g.n)]

    def propagate(g, dists):
        new = []
        for v in range(g.n):
            ns = _neighborhood(g, v)
            w = 1.0 / len(ns)
            acc = {lab: 0.0 for lab in labels}
            for u in ns:
                for lab in labels:
                    acc[lab] = acc[lab] + w * dists[u][lab]
            new.append(acc)
        return new

    def bins(dists, t):
        counts = {}
        for d in dists:
            key = tuple(
                math.floor((d[lab] + quantization_offset(seed, t, lab)
                            * width) / width)
                for lab in labels)
            counts[key] = counts.get(key, 0) + 1
        return counts

    d1, d2 = init(g1), init(g2)
    total = 0
    for t in range(t_max + 1):
        c1, c2 = bins(d1, t), bins(d2, t)
        for key, cnt in c1.items():
            total += cnt * c2.get(key, 0)
        if t < t_max:
            d1, d2 = propagate(g1, d1), propagate(g2, d2)
    return total


def reference_propagation_kernel(g1, g2, seed=0):
    k12 = _raw(g1, g2, seed)
    k11 = _raw(g1, g1, seed)
    k22 = _raw(g2, g2, seed)
    return k12 / math.sqrt(k11 * k22)
