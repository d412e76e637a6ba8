"""Seeded input generators for the secgroups benchmark.

Every input is plain data (ints, strings and tuples of them); the ops in
`ops.py` turn it into library objects.  This module imports nothing from
`secgroups`, so editing library helpers (the selftest ones included) cannot
change a workload.

A workload is an endless stream of passes.  A pass is a list of ops
`(kind, data)` in which every cell of the workload's design appears a fixed
number of times, in an order shuffled by the seed.  Runs are made of whole
passes, so every run sees the same mix of cells.
"""

from __future__ import annotations

import random

LETTERS = "abcde"


def random_word(rng, letters, min_len, max_len):
    """A word as a tuple of (letter, +1 or -1), length uniform in range."""
    return tuple((rng.choice(letters), rng.choice((-1, 1)))
                 for _ in range(rng.randint(min_len, max_len)))


def random_hom(rng, src_k, tgt_k, max_len):
    """Images of the src_k source letters as words on tgt_k letters."""
    return tuple(random_word(rng, LETTERS[:tgt_k], 0, max_len)
                 for _ in range(src_k))


def random_track(rng, k):
    """A track on k letters: the map phi and a k^2 x k measure matrix."""
    return (random_hom(rng, k, k, 3),
            tuple(tuple(rng.randint(-2, 2) for _ in range(k))
                  for _ in range(k * k)))


# ---------------------------------------------------------------------------
# wedge-homotopy: the seed only orders the cells
# ---------------------------------------------------------------------------

WEDGE_CELLS = [(n, k) for n in (2, 3) for k in (2, 3, 4, 5)]
# times each cell comes in a pass of 40 ops, so that p50 falls in the
# middle of the (2, 3) ops and p90 in the middle of the (3, 4) ops, not on
# the edge of a cluster of like ops.  The k=5 ops, over half the time of a
# pass, are the top 5%: scaled by the reference slices, their time still
# varies with host speed by several per cent, which made a p90 taken among
# them spread 0.10 of its median from run to run.
WEDGE_REPEATS = {(2, 2): 8, (3, 2): 8, (2, 3): 8, (3, 3): 8,
                 (2, 4): 2, (3, 4): 4, (2, 5): 1, (3, 5): 1}


def wedge_pass(rng):
    ops = [("wedge", cell) for cell in WEDGE_CELLS
           for _ in range(WEDGE_REPEATS[cell])]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# module-invariants: fibers + six-term, k-invariants, suspension comparisons
# ---------------------------------------------------------------------------

KINV_CELLS = [(n, k) for n in (2, 3) for k in (2, 3, 4)]
# the level-3 k=4 k-invariant comes twice a pass: p90 falls among these
# ops, and two a pass put it in their middle
KINV_REPEATS = {(3, 4): 2}
SUSP_CELLS = [1, 2, 3, 4]
FIBER_CELLS = [(kx, ky) for kx in (1, 2) for ky in (1, 2)]
FIBERS_PER_CELL = 4


def fiber_input(rng, kx, ky):
    """A morphism from the level-2 wedge on kx letters to a quotient wedge
    on ky letters: quotient multipliers for the (at most 3) kernel rows of
    the target boundary, and the base map as words."""
    mult = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(3))
    return (kx, ky, mult, random_hom(rng, kx, ky, 2))


def module_pass(rng):
    ops = [("kinv", cell) for cell in KINV_CELLS
           for _ in range(KINV_REPEATS.get(cell, 1))]
    ops += [("susp", k) for k in SUSP_CELLS]
    ops += [("fiber", fiber_input(rng, kx, ky))
            for kx, ky in FIBER_CELLS for _ in range(FIBERS_PER_CELL)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# track-laws: random tracks with their laws, interchange squares
# ---------------------------------------------------------------------------

TRACK_CELLS = [(n, k) for n in (2, 3) for k in (2, 3)]
TRACKS_PER_CELL = 6
QUAD_SQUARES = 3
CROSSED_SQUARES = 1


def track_input(rng, n, k):
    """Two tracks A -> B (pasting), a map C -> A (right whisker) and a map
    B -> C (left whisker), all free class-2 groups on k letters."""
    return (n, k, random_track(rng, k), random_track(rng, k),
            random_hom(rng, k, k, 3), random_hom(rng, k, k, 3))


def quad_square_input(rng):
    """Level-2 wedges x (2 letters) -> y (1) -> z (1): base maps as words
    and the 2-morphism values on the base generators of x and of y."""
    return (random_hom(rng, 2, 1, 2),
            tuple(rng.randint(-1, 1) for _ in range(2)),
            random_hom(rng, 1, 1, 2),
            tuple(rng.randint(-1, 1) for _ in range(1)))


def crossed_square_input(rng):
    """Values of two 2-morphisms on the conjugation module of the free
    class-2 group on 2 letters, as exponent vectors."""
    return tuple(tuple(tuple(rng.randint(-1, 1) for _ in range(2))
                       for _ in range(2)) for _ in range(2))


def track_pass(rng):
    ops = [("track", track_input(rng, n, k))
           for n, k in TRACK_CELLS for _ in range(TRACKS_PER_CELL)]
    ops += [("quad_square", quad_square_input(rng))
            for _ in range(QUAD_SQUARES)]
    ops += [("crossed_square", crossed_square_input(rng))
            for _ in range(CROSSED_SQUARES)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# coset-orders: <a, b | a^p, b^q, w>
# ---------------------------------------------------------------------------

COSET_EXPONENTS = range(2, 7)
WORDS_PER_CELL = 10


def coset_pass(rng):
    ops = [("coset", (p, q, random_word(rng, "ab", 2, 8)))
           for p in COSET_EXPONENTS for q in COSET_EXPONENTS
           for _ in range(WORDS_PER_CELL)]
    rng.shuffle(ops)
    return ops


PASSES = {
    "wedge-homotopy": wedge_pass,
    "module-invariants": module_pass,
    "track-laws": track_pass,
    "coset-orders": coset_pass,
}


def passes(workload: str, seed: int):
    """The endless stream of passes of a workload for a seed."""
    make = PASSES[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    while True:
        yield make(rng)
