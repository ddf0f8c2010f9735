"""Independent oracles that more than one test module checks the package
against.  None of them calls the code it checks."""

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
