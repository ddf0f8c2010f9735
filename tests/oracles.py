"""Independent oracles that more than one test module checks the package
against.  None of them calls the code it checks."""

from bisect import bisect_right

#: the brute force is unconditional up to this many vertices
BRUTE_FORCE_LIMIT = 24


def flatten(space, label) -> int:
    """Flat index of ``label`` in the IndexSpace ``space``: row-major with the
    first factor most significant, each factor's display offset removed."""
    if len(label) != len(space.factors):
        raise ValueError("label arity mismatch")
    flat = 0
    for value, factor, offset in zip(label, space.factors, space.offsets):
        v = value - offset
        if not 0 <= v < factor:
            raise ValueError(f"label {tuple(label)} out of range for {space.factors}")
        flat = flat * factor + v
    return flat


def independence_number_bruteforce(g) -> int:
    """Independence number of the graph ``g`` by subset enumeration."""
    n = g.vertex_count
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices")
    adj = g.adjacency
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        m = mask
        ok = True
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = size
    return best


def dense_numerators(c) -> list:
    """The numerators of the channel ``c`` as a dense ``[input][output]``
    table over ``c.denominator``, 0 off each sparse column."""
    dense = []
    for outputs, numerators in c.columns:
        column = [0] * c.n_outputs
        for o, w in zip(outputs, numerators):
            column[o] = w
        dense.append(column)
    return dense


def cumulative_table(column, denominator=None) -> tuple:
    """Reference sampling table of one distribution for ``sample_column``:
    the indices of the positive entries, their running totals (shifted left
    64 bits when ``column`` holds int numerators over ``denominator``; float
    sums when ``denominator`` is None) and the denominator."""
    indices, totals, total = [], [], 0
    for idx, w in enumerate(column):
        if w > 0:
            total += w
            indices.append(idx)
            totals.append(total if denominator is None else total << 64)
    return indices or [0], totals, denominator


def sample_column(table, rng) -> int:
    """Index drawn from a ``cumulative_table`` by multiply and compare: a
    64-bit r gives the first positive entry whose running numerator N has
    r * denominator < N << 64; a float table compares ``rng.random()`` with
    the running sums.  A draw beyond the last total gives the last positive
    entry."""
    indices, totals, denominator = table
    key = rng.random() if denominator is None else rng.getrandbits(64) * denominator
    return indices[min(bisect_right(totals, key), len(indices) - 1)]
