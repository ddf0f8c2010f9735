"""Stochastic channels over tuple-structured alphabets, including the two
families whose confusability graphs are complete yet which become useful under
extremal no-signaling assistance.

A channel is one stored integer table of sparse columns:
``columns[input]`` lists the outputs o with p(o|i) > 0 in increasing order
and their numerators over one common ``denominator`` (in lowest terms),
summing exactly to it.  Every zero-error question depends only on which
entries are positive, so the package reads the columns; no dense table is
kept, and ``Channel.prob`` finds one entry in its column.  Channels are
always exact; only boxes (:mod:`zecomm.behaviors`) may hold floats.
``Channel(...)``, the checked constructor, takes sparse columns; it and
:func:`make_channel`, which builds them from a dense matrix, check every
entry they are given.  Every builder (the layered families, the identity
channel and tensor products) makes tuples of positive numerators in lowest
terms by construction, so its channels skip the check.  Both families
are layered: each layer is one list, o2 of every flat input, read off one
table of the rotations ``pi_perm``; the theorem schemes of
:mod:`zecomm.protocols` read their decoders off the same lists.
Alphabets are :class:`IndexSpace` objects, whose labels are display tuples in
flat-index order; the first output factor of the structured families carries
a +1 display offset (labels 1..m+1 resp. 1..m(m-1)+1, stored 0-based).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress, product
from operator import lt

from .numeric import (
    RATIONAL, Frozen, check_index, check_size, check_table_size, integer_rows, prob_parser, ratio_text,
    table_problems,
)


class IndexSpace(Frozen):
    """Product alphabet; ``labels()`` enumerates the labels in flat-index order.

    Flat indices are row-major with the first factor most significant.  Offsets
    shift the displayed labels only (e.g. an output factor labeled 1..m+1).
    """

    _fields = ("factors", "offsets")

    def __init__(self, factors: tuple[int, ...], offsets: tuple[int, ...] | None = None):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "offsets", (0,) * len(factors) if offsets is None else offsets)
        if not (type(self.factors) is tuple and type(self.offsets) is tuple
                and all(type(v) is int for v in self.factors + self.offsets)):
            raise ValueError(f"factors {self.factors!r} and offsets {self.offsets!r} must be tuples of ints")
        if any(f < 1 for f in self.factors):
            raise ValueError("factor cardinalities must be >= 1")
        if len(self.offsets) != len(self.factors):
            raise ValueError("offsets length must match factors")

    @property
    def size(self) -> int:
        return math.prod(self.factors)

    def labels(self):
        """Every label in flat-index order."""
        return product(*(range(offset, offset + factor) for factor, offset in zip(self.factors, self.offsets)))


class Channel(Frozen):
    """Column-stochastic table with structured input/output alphabets.

    The checked constructor takes sparse columns: ``columns[input_flat]`` is an
    ``(outputs, numerators)`` pair, the outputs ints strictly increasing in
    0..n_outputs-1 and the numerators ints or Fractions over ``denominator``,
    summing to it.  Every column given is checked, then stored canonically:
    positive entries only, in lowest terms by ``integer_rows``, as tuples, so
    that equal channels compare and hash equal.  The columns are the one
    stored table and ``supports[input_flat]`` their outputs; no dense view
    of it is kept.  A dense table of outside entries is built by
    :func:`make_channel`; a builder's canonical table is stored unchecked
    by ``_built``.
    """

    _fields = ("input_space", "output_space", "columns", "denominator")

    def __init__(self, input_space: IndexSpace, output_space: IndexSpace, columns: tuple, denominator: int = 1):
        object.__setattr__(self, "input_space", input_space)
        object.__setattr__(self, "output_space", output_space)
        object.__setattr__(self, "columns", columns)  # columns[input_flat] = (outputs, numerators)
        object.__setattr__(self, "denominator", denominator)
        for name in ("input_space", "output_space"):
            if not isinstance(getattr(self, name), IndexSpace):
                raise ValueError(f"invalid channel: {name} {getattr(self, name)!r} is not an IndexSpace")
        if not isinstance(self.columns, (tuple, list)):
            raise ValueError(f"invalid channel: columns {self.columns!r} are not a tuple or list")
        columns, n_out = tuple(self.columns), self.n_outputs
        if len(columns) != self.n_inputs:
            problems = ["column count does not match input space"]
        else:
            problems = [problem for i, column in enumerate(columns) if (problem := _shape_problem(i, column, n_out))]
            blocks = ((f"column {i}", numerators) for i, (_, numerators) in enumerate(columns))
            problems = problems or table_problems(blocks, self.denominator, rational=True)
        if problems:
            raise ValueError("invalid channel: " + "; ".join(problems))
        rows, denominator = integer_rows([numerators for _, numerators in columns], self.denominator)
        canonical = []
        for (outputs, _), row in zip(columns, rows):
            if 0 in row:  # positive entries only
                outputs, row = compress(outputs, row), tuple(compress(row, row))
            canonical.append((tuple(outputs), row))
        object.__setattr__(self, "columns", tuple(canonical))
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "supports", tuple(outputs for outputs, _ in canonical))

    def prob(self, output_flat: int, input_flat: int) -> Fraction:
        """p(output|input), found by bisection in the input's sorted column
        (0 off it); refuses an index that is not an int in range."""
        check_index("channel output", output_flat, self.n_outputs)
        check_index("channel input", input_flat, self.n_inputs)
        outputs, numerators = self.columns[input_flat]
        i = bisect_left(outputs, output_flat)
        on_column = i < len(outputs) and outputs[i] == output_flat
        return Fraction(numerators[i] if on_column else 0, self.denominator)

    @property
    def n_inputs(self) -> int:
        return self.input_space.size

    @property
    def n_outputs(self) -> int:
        return self.output_space.size


def _built(input_space: IndexSpace, output_space: IndexSpace, columns: tuple, denominator: int) -> Channel:
    """The channel with these sparse columns, which a builder made canonical
    (tuples, positive entries only, in lowest terms), constructed without
    the check."""
    c = object.__new__(Channel)
    c.__dict__.update(input_space=input_space, output_space=output_space, columns=columns,
                      denominator=denominator, supports=tuple(outputs for outputs, _ in columns))
    return c


def _shape_problem(i: int, column, n_out: int):
    """What is wrong with the shape of sparse column ``i``, or None."""
    if not (isinstance(column, (tuple, list)) and len(column) == 2 and isinstance(column[0], (tuple, list))
            and isinstance(column[1], (tuple, list)) and set(map(type, column[0])) <= {int}):
        return f"column {i} is not an (outputs, numerators) pair of tuples or lists with int outputs"
    outputs, numerators = column
    if len(outputs) != len(numerators) or outputs and not (
            0 <= outputs[0] and outputs[-1] < n_out and all(map(lt, outputs, outputs[1:]))):
        return f"column {i} does not give one numerator per output, the outputs increasing in 0..{n_out - 1}"


def make_channel(
    matrix: Sequence[Sequence[object]],
    input_space: IndexSpace,
    output_space: IndexSpace,
) -> Channel:
    """Build and validate a channel from a dense column-major matrix
    (``matrix[input][output]``) of outside entries: ints, Fractions, "num/den"
    strings or floats, each distinct entry coerced once to an exact rational,
    its positive entries handed to ``Channel(...)`` as sparse columns."""
    parse = prob_parser(RATIONAL)
    matrix = [list(map(parse, column)) for column in matrix]
    n_out = output_space.size
    if len(matrix) == input_space.size:  # otherwise Channel refuses the column count
        short = [f"column {i} has wrong length" for i, column in enumerate(matrix) if len(column) != n_out]
        if short:
            raise ValueError("invalid channel: " + "; ".join(short))
    outputs, columns = range(n_out), []
    for column in matrix:
        keep = list(map(bool, column))  # one truth test per entry, for both selections
        columns.append((list(compress(outputs, keep)), list(compress(column, keep))))
    return Channel(input_space, output_space, columns)


def _layered(input_space: IndexSpace, output_space: IndexSpace, layers) -> Channel:
    """Channel with o1 (labels 1..L) uniform and o2 given by one list per
    layer: column i has numerator 1 over L at (o1, ``layers[o1 - 1][i]``)
    for each layer o1."""
    n_layers, m = output_space.factors
    flat = [[base + o2 for o2 in layer] for base, layer in zip(range(0, n_layers * m, m), layers)]
    ones = (1,) * len(layers)
    return _built(input_space, output_space, tuple((outputs, ones) for outputs in zip(*flat)), n_layers)


# --- permutation algebra ----------------------------------------------------

def pi_perm(m: int, shift: int, i2: int) -> int:
    """Output permutation family: 0 is fixed, the nonzero symbols are rotated
    by ``shift`` within {1..m-1}.  A bijection on {0..m-1} for every shift.
    """
    if not 0 <= i2 < m:
        raise ValueError("symbol out of range")
    if not 0 <= shift < m - 1:
        raise ValueError("shift out of range")
    if i2 == 0:
        return 0
    return (i2 - 1 + shift) % (m - 1) + 1


def _rotations(m: int) -> list[list[int]]:
    """``rot[shift][i2] = pi_perm(m, shift, i2)`` for every shift."""
    return [[pi_perm(m, shift, i2) for i2 in range(m)] for shift in range(m - 1)]


# --- channel families -------------------------------------------------------

def _nm_spaces(m: int) -> tuple[IndexSpace, IndexSpace]:
    """Input and output alphabets of ``make_nm(m)``."""
    check_size("m", m)
    if m < 2:
        raise ValueError("require m >= 2")
    check_table_size(2 * m * (m + 1) * m)
    return IndexSpace((2, m)), IndexSpace((m + 1, m), offsets=(1, 0))


def make_nm(m: int) -> Channel:
    """Channel with inputs {0,1} x {0..m-1} and outputs {1..m+1} x {0..m-1}.

    The first output coordinate is uniform with weight 1/(m+1); the second is
    a deterministic function of the input: o2 = i1 for o1 = 1, o2 = i2 for
    o1 = 2, and o2 = i1 + pi_perm(m, o1-3, i2) mod m for o1 in {3..m+1}.

    For m in {2, 3} every pair of inputs shares an output and the
    confusability graph is complete on 2m vertices.  For m >= 4 this rule
    leaves some cross pairs with disjoint supports (the shifted permutations
    double-cover other pairs), so the graph is not complete; the one-bit
    assisted scheme still succeeds with certainty for every m.
    """
    return _layered(*_nm_layers(m))


def _nm_layers(m: int) -> tuple[IndexSpace, IndexSpace, list[list[int]]]:
    """Input and output alphabets and layers of ``make_nm(m)``."""
    input_space, output_space = _nm_spaces(m)
    labels = list(input_space.labels())
    layers = [[i1 for i1, _ in labels], [i2 for _, i2 in labels]]
    layers += [[(i1 + rot[i2]) % m for i1, i2 in labels] for rot in _rotations(m)]
    return input_space, output_space, layers


def _mm_spaces(m: int) -> tuple[IndexSpace, IndexSpace]:
    """Input and output alphabets of ``make_mm(m)``."""
    check_size("m", m)
    if m < 2:
        raise ValueError("require m >= 2")
    check_table_size(m * 2 * (m * (m - 1) + 1) * m)
    return IndexSpace((m, 2)), IndexSpace((m * (m - 1) + 1, m), offsets=(1, 0))


def make_mm(m: int) -> Channel:
    """Channel with inputs {0..m-1} x {0,1} and outputs
    {1..m(m-1)+1} x {0..m-1}.

    The first output coordinate is uniform with weight 1/(m(m-1)+1).  For
    o1 = 1, o2 = i1.  The remaining labels split into m blocks of width m-1,
    block j from o1 = (m-1)j + 2; within block j the rule is
    o2 = i1 + pi_perm(m, o1 - (m-1)j - 2, i2') mod m
    with i2' = i2 xor [i1 = j] for j >= 1 and i2' = i2 for block 0.  (The
    block-0 rule has no xor flip; with it the per-block intersection pattern
    that completes the confusability graph would break.)  Every output row has
    exactly two positive entries, and the confusability graph is complete on
    2m vertices.
    """
    return _layered(*_mm_layers(m))


def _mm_layers(m: int) -> tuple[IndexSpace, IndexSpace, list[list[int]]]:
    """Input and output alphabets and layers of ``make_mm(m)``: layer 1,
    then block j's m - 1 layers for j = 0..m-1."""
    input_space, output_space = _mm_spaces(m)
    labels = list(input_space.labels())
    block0 = [[(i1 + rot[i2]) % m for i1, i2 in labels] for rot in _rotations(m)]
    layers = [[i1 for i1, _ in labels]] + block0
    for j in range(1, m):  # the xor flip: block 0 with inputs (j, 0) and (j, 1), flat 2j and 2j + 1, swapped
        for layer in block0:
            layer = layer.copy()
            layer[2 * j], layer[2 * j + 1] = layer[2 * j + 1], layer[2 * j]
            layers.append(layer)
    return input_space, output_space, layers


def identity_channel(n: int) -> Channel:
    check_size("n", n)
    space = IndexSpace((n,))
    check_table_size(n * n)
    return _built(space, space, tuple(((i,), (1,)) for i in range(n)), 1)


def tensor_channels(c1: Channel, c2: Channel) -> Channel:
    """Independent parallel use; numerators multiply over the product
    alphabets, and so do denominators.

    The product is canonical as built: a prime dividing d1 * d2 and every
    product numerator would divide every numerator of one factor, so also
    that factor's denominator, the sum of a column.  Its columns hold the
    products of the factors' positive entries, so it is capped on their
    count; its dense table may pass the cap, and is never built."""
    input_space = IndexSpace(
        c1.input_space.factors + c2.input_space.factors,
        c1.input_space.offsets + c2.input_space.offsets,
    )
    output_space = IndexSpace(
        c1.output_space.factors + c2.output_space.factors,
        c1.output_space.offsets + c2.output_space.offsets,
    )
    check_table_size(sum(len(s) for s, _ in c1.columns) * sum(len(s) for s, _ in c2.columns))
    n_out2 = c2.n_outputs
    columns = []
    for support1, weights1 in c1.columns:
        bases = [o1 * n_out2 for o1 in support1]
        columns += [(tuple([base + o2 for base in bases for o2 in support2]),
                     tuple([w1 * w2 for w1 in weights1 for w2 in weights2]))
                    for support2, weights2 in c2.columns]
    return _built(input_space, output_space, tuple(columns), c1.denominator * c2.denominator)


def _sampling_table(indices, numerators, denominator=None) -> tuple[list, list]:
    """Threshold table ``(kept, bounds)`` of one distribution, given as its
    ``indices`` and their ``numerators``: a key k draws
    ``kept[bisect_right(bounds, k)]``.

    ``numerators`` are ints over ``denominator``, or floats when
    ``denominator`` is None.  ``kept`` lists the indices of the positive
    entries, in the order given.  For an integer column, k is a 64-bit draw
    r and the bound of an entry with
    running numerator N is ceil(N * 2**64 / denominator), so r falls below
    it exactly when r / 2**64 < N / denominator; the draw lies on a 2**-64
    grid, so each entry is sampled to within 2**-64 (1/3, say, not exactly).
    An exact draw, ``randrange(denominator)``, would only change the key and
    the bounds (to N itself), but it would change every seeded estimate.
    For a float column, k is ``rng.random()`` and the bounds are the running
    float sums.  The last bound is infinite in both cases, so a key beyond
    the last total (float round-off) draws the last positive entry; a column
    with no positive entry is ``([0], [inf])``.
    """
    kept, bounds, total = [], [], 0
    for idx, w in zip(indices, numerators):
        if w > 0:
            total += w
            kept.append(idx)
            bounds.append(total if denominator is None else -(-(total << 64) // denominator))
    if not kept:
        return [0], [math.inf]
    bounds[-1] = math.inf
    return kept, bounds


# --- JSON interchange -------------------------------------------------------

def channel_to_json(c: Channel) -> dict:
    """``matrix[input][output]`` is "num/den", "0/1" off the column's outputs."""
    matrix, zeros = [], ["0/1"] * c.n_outputs
    for outputs, numerators in c.columns:
        column = zeros.copy()
        for o, w in zip(outputs, numerators):
            column[o] = ratio_text(w, c.denominator)
        matrix.append(column)
    return {
        "inputs": {"factors": list(c.input_space.factors), "offsets": list(c.input_space.offsets)},
        "outputs": {"factors": list(c.output_space.factors), "offsets": list(c.output_space.offsets)},
        "mode": RATIONAL,
        "matrix": matrix,
    }


def channel_from_json(data: dict) -> Channel:
    def space(d):
        return IndexSpace(tuple(d["factors"]), tuple(d.get("offsets", [0] * len(d["factors"]))))

    if data["mode"] != RATIONAL:
        raise ValueError(f"channel mode {data['mode']!r} is not supported: channels are {RATIONAL!r}")
    return make_channel(data["matrix"], space(data["inputs"]), space(data["outputs"]))


def save_channel(c: Channel, path: str) -> dict:
    """Write ``channel_to_json(c)`` to ``path`` and return it."""
    data = channel_to_json(c)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
    return data


def load_channel(path: str) -> Channel:
    with open(path) as fh:
        return channel_from_json(json.load(fh))
