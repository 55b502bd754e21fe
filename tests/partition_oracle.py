"""The stratified partition built through Python lists: each class's
shuffled indices are cut at the rounded cumulative fractions, and each cut
is appended to its part as a list. `cohort._stratified_partition` is checked
against it, array for array."""

import numpy as np


def list_stratified_partition(labels, fractions, rng):
    parts = [[] for _ in fractions]
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        bounds = np.floor(np.cumsum(fractions) * idx.size + 0.5).astype(int)
        bounds[-1] = idx.size
        start = 0
        for p, stop in enumerate(bounds):
            parts[p].extend(idx[start:stop].tolist())
            start = stop
    return [np.sort(np.array(p, dtype=np.int64)) for p in parts]
