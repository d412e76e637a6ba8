"""Lattice equality, an oracle for the tests: two sets of rows span one
lattice of Z^ncols.  The library compares no lattices; exactness and
injectivity read kernel bases (`abelian.exact`, `AbMap.is_injective`)."""

from secgroups import intlinalg as la


def lattices_equal(rows_a, rows_b, ncols: int) -> bool:
    """Does each set of rows lie in the lattice of the other?  One
    `in_lattice` solver per direction."""
    return (la.in_lattice(rows_b, ncols, *rows_a)
            and la.in_lattice(rows_a, ncols, *rows_b))
