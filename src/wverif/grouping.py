"""Row keys and member-count blocks, shared by archive and postprocess.

Both work on columns: ``_key_codes`` numbers the rows of key columns in
sorted order, and ``_blocks`` cuts a column of member counts into
bounded blocks of one count, the unit of every stacked call over an
archive's (n, m) member array.  The module imports only numpy, so
every other module of the package can import it at module top.
"""

from __future__ import annotations

import numpy as np


def _key_codes(*columns) -> np.ndarray:
    """One integer per row of the key columns: 0, 1, ... , equal for rows
    that agree in every column, and ascending as the rows sort by the
    first column, then the next.  Entries compare as Python values, None
    after all others.

    Each column is ranked among its distinct values; one lexsort orders
    the rows by their ranks, and the codes count the changes of row
    along that order.
    """
    ranks = []
    for col in columns:
        values = sorted(set(col), key=lambda v: (v is None, 0 if v is None else v))
        rank = dict(zip(values, range(len(values))))
        ranks.append(np.fromiter(map(rank.__getitem__, col), np.intp, len(col)))
    order = np.lexsort(ranks[::-1])
    rows = np.stack(ranks)[:, order]
    change = np.ones(order.size, dtype=np.intp)
    change[1:] = (rows[:, 1:] != rows[:, :-1]).any(axis=0)
    code = np.empty_like(order)
    code[order] = np.cumsum(change) - 1
    return code


# Records, or stacked multivariate cases, per kernel call.  The kernels'
# temporaries grow with the stack: scoring the 2,400 records of m = 51
# members of the benchmark's score-raw archive in one call raised the
# peak RSS of a vrcrps run by 7.6 MiB, against 0.9 MiB in blocks of 256.
_STACK = 256


def _blocks(sizes: np.ndarray):
    """(member count, items) for blocks of at most ``_STACK`` items.

    The items of a block share one member count; they are taken in
    order within each member count, and member counts in order of first
    appearance.  ``items`` is a slice when all items share one member
    count, otherwise an index array.
    """
    counts, first = np.unique(sizes, return_index=True)
    if counts.size == 1:
        for a in range(0, sizes.size, _STACK):
            yield int(counts[0]), slice(a, a + _STACK)
        return
    for k in counts[np.argsort(first)].tolist():
        idx = np.flatnonzero(sizes == k)
        for a in range(0, idx.size, _STACK):
            yield k, idx[a : a + _STACK]
