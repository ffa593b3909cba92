"""Row keys and member-count blocks, shared by archive and postprocess.

Both work on columns: ``_key_codes`` numbers the rows of key columns in
sorted order, and ``_blocks`` cuts a column of member counts into its
groups of one count, the unit of every stacked call over an archive's
(n, m) member array; the kernels bound their own memory.  The module
imports only numpy, so every other module of the package can import it
at module top.
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


def _blocks(sizes: np.ndarray):
    """(member count, items) for each member count of ``sizes``, in order
    of first appearance, with the items of that count in order.
    ``items`` is a slice when all items share one member count,
    otherwise an index array.
    """
    counts, first = np.unique(sizes, return_index=True)
    if counts.size == 1:
        yield int(counts[0]), slice(None)
        return
    for k in counts[np.argsort(first)].tolist():
        yield k, np.flatnonzero(sizes == k)
