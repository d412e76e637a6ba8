"""Exact integer linear algebra.

Everything here works on lists of lists of Python ints, so coefficients can
grow without bound.  Matrices are row-major; a matrix with zero rows or zero
columns is legal and common (presentations of free groups, trivial groups).
Because the number of rows cannot disambiguate an empty matrix, functions
that need the column count take it explicitly.

The workhorse is `smith_normal_form`, which returns the diagonal of the
Smith form together with the unimodular transforms and U's inverse:

    U * A * V == D      and      Uinv * D == A * V

with D diagonal, each diagonal entry nonnegative and dividing the next.
Its `keep` names the transforms a caller reads, and only those are built
and updated: a kernel needs V, a row basis U, whose rows of U * A at the
nonzero diagonal entries span the row lattice (U * A == D * V^-1, so row
i is d_i times a row of the unimodular V^-1), and a `Lattice` all three.
The transforms are nearly permutations on these inputs (at 16 letters the
largest are 256 x 256 with under 1% nonzeros), so each is held sparse, one
{index: entry} dict per vector with zero entries dropped, in the
orientation its updates run: U as rows, V and Uinv as columns.
An identity starts as one entry per vector, and a row or column operation
touches only the nonzeros of the vector it adds.  D stays a dense copy of
the input, which the pivot search scans.  The operations, and so D and
every entry of the transforms, are the ones the dense kernel made.
The pivot is the first entry of least absolute value in row-major order of
the remaining submatrix; the search stops at the first unit, since nothing
beats it, and the divisibility check of the rest against the pivot is
skipped when the pivot is 1.  The relation matrices here are sparse with
mostly unit entries, so a step usually costs one short search and the row
and column operations that clear the pivot's row and column.  A column
operation touches D only in the rows from the pivot down, and only where
the multiplier is nonzero, and a pivot already in place is not swapped.
Each operation is written out where it runs, inside the one loop, with no
helper built per call, and a row or column operation whose multiplier is
0 is skipped, since it changes nothing.
An empty or all-zero matrix has no pivot, so the kernel returns min(m, n)
zeros and identity transforms before its loop starts.

A `Lattice` is the one Smith certificate of a lattice L, the span of the
columns of E = [a | lattice_rows^T]: one SNF, U E V = D, held as U and
U^-1 in sparse columns, V's first rank columns cut to a's ncols rows (no
V when a has no columns, as for a group's relation lattice), and the
moduli, D's nonzero entries then 0 past the rank.  b lies in L exactly
when coordinate i of U b is 0 modulo moduli[i] (a modulus 0 means
exactly 0), so every question reads the certificate with no further SNF:
`contains`, `solve` (one x with a @ x == b modulo the lattice rows),
`divide` (by `divide_mod` per coordinate), `representatives` of the
cosets and `preimage` {x : c @ x in L} (`certified_preimage`: one
`kernel_basis`, already a basis).  A system with no nonzero entry holds
the identity certificate and runs no SNF, and a vector or matrix of the
wrong length is a `ValueError`.  Groups, maps, a class-2 group's `lam`,
`in_lattice` (any number of vectors, one certificate) and `solve_mod`
each hold one.  No lattices are compared: injectivity and exactness read
a held kernel basis (`abelian`).
`sub_basis_coordinates` is the one step that rewrites relation rows in a
basis of a sub-lattice containing them (a kernel, a commutator subgroup):
each row is solved exactly against the basis, never modulo the relations
themselves, where any vector of the lattice, 0 among them, would do.

A transform is applied to a vector by adding the sparse columns of its
nonzero entries (`column_combination`); `mat_vec` likewise sums over the
nonzeros of its vector only, and returns zeros for a zero vector without
a pass over the rows.  The integers are the ones the dense products give.
"""

from __future__ import annotations

import functools
import math
from itertools import compress, product


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> list[list[int]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    """a @ v, summed over the nonzero entries of v only."""
    nz = [(j, v[j]) for j in compress(range(len(v)), v)]
    if not nz:
        return [0] * len(a)
    return [sum([row[j] * x for j, x in nz]) for row in a]


def sparse_transpose(vecs, n: int) -> list[dict]:
    """The n columns of a matrix held as sparse rows (one {column: entry}
    dict per row) as sparse columns, or the other way round, in one pass."""
    out = [{} for _ in range(n)]
    for i, vec in enumerate(vecs):
        for j, x in vec.items():
            out[j][i] = x
    return out


def column_combination(cols, coeffs, nrows: int) -> list[int]:
    """sum_k coeffs[k] * column k for columns held sparse ({row: entry}
    dicts), summed over the nonzero coeffs only."""
    out = [0] * nrows
    for k in compress(range(len(coeffs)), coeffs):
        c = coeffs[k]
        for i, x in cols[k].items():
            out[i] += c * x
    return out


def transpose(a: list[list[int]], ncols: int) -> list[list[int]]:
    return [[row[j] for row in a] for j in range(ncols)]


def vec_add(u: list[int], v: list[int]) -> list[int]:
    return [x + y for x, y in zip(u, v)]


def vec_sub(u: list[int], v: list[int]) -> list[int]:
    return [x - y for x, y in zip(u, v)]


def vec_scale(k: int, v: list[int]) -> list[int]:
    return [k * x for x in v]


def kron(u: list[int], v: list[int]) -> list[int]:
    """Kronecker product of coefficient vectors, (i, j) ordered with i major."""
    return [a * b for a in u for b in v]


def kron_matrix(a: list[list[int]], arows: int, acols: int,
                b: list[list[int]], brows: int, bcols: int) -> list[list[int]]:
    """Kronecker product of matrices with explicit shapes."""
    out = zeros(arows * brows, acols * bcols)
    for i in range(arows):
        for j in range(acols):
            aij = a[i][j]
            if aij:
                for k in range(brows):
                    for l in range(bcols):
                        out[i * brows + k][j * bcols + l] = aij * b[k][l]
    return out


TRANSFORMS = ("u", "v", "uinv")


def _add_scaled(dst: dict, src: dict, k: int) -> None:
    """dst += k * src on sparse vectors, dropping entries that cancel."""
    for i, x in src.items():
        y = dst.get(i, 0) + k * x
        if y:
            dst[i] = y
        else:
            del dst[i]


def smith_normal_form(a: list[list[int]], ncols: int, keep=TRANSFORMS):
    """Return (diag, U, V, Uinv) with U*a*V == D in Smith normal form and
    diag the min(rows, ncols) diagonal entries of D.

    Each transform is held in the orientation its updates run, one
    {index: entry} dict per vector, zero entries dropped: U as a list of
    rows, V and Uinv as lists of columns.  Only the transforms named in
    `keep` (some of "u", "v", "uinv") are built and updated; each one left
    out is returned as None, and any other entry, or a bare string, is a
    ValueError.  Pivots are chosen by looking at D alone, so D and every
    kept transform are the same whichever others are kept.
    """
    if isinstance(keep, str):
        raise ValueError("keep must be a collection of transform names, "
                         "not the string %r" % keep)
    unknown = [k for k in keep if k not in TRANSFORMS]
    if unknown:
        raise ValueError("unknown transform(s) %s in keep; expected some of "
                         "%s" % (", ".join(map(repr, unknown)), TRANSFORMS))
    m = len(a)
    n = ncols
    u = [{i: 1} for i in range(m)] if "u" in keep else None
    v = [{i: 1} for i in range(n)] if "v" in keep else None
    ui = [{i: 1} for i in range(m)] if "uinv" in keep else None
    # an empty or all-zero matrix has no pivot: D is the input and every
    # transform the identity, as the loop below would leave them
    if not any(map(any, a)):
        return [0] * min(m, n), u, v, ui
    d = [row[:] for row in a]
    # a row operation acts on the rows of D and U and on the columns of
    # Uinv; a column operation on the columns of D and V.  Rows of D above
    # the pivot t are zero in every column >= t, so column operations on D
    # touch rows t.. only.
    t = 0
    while True:
        # pivot: the first entry of least |x| in d[t:, t:], row-major.  Rows
        # t.. are zero left of column t, so a whole row can be searched for
        # a unit, and the first unit ends the search: nothing can beat it.
        pi = pj = best = 0
        for i in range(t, m):
            row = d[i]
            if 1 in row or -1 in row:
                pi, best = i, 1
                for pj in range(t, n):
                    if row[pj] == 1 or row[pj] == -1:
                        break
                break
            if any(row):
                for j in range(t, n):
                    x = row[j]
                    if x and (not best or abs(x) < best):
                        pi, pj, best = i, j, abs(x)
        if not best:
            break
        if pi != t:  # swap rows t and pi
            d[t], d[pi] = d[pi], d[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
            if ui is not None:
                ui[t], ui[pi] = ui[pi], ui[t]
        if pj != t:  # swap columns t and pj
            for r in d[t:]:
                r[t], r[pj] = r[pj], r[t]
            if v is not None:
                v[t], v[pj] = v[pj], v[t]
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    # row i -= q * row t
                    dt = d[t]
                    q = d[i][t] // dt[t]
                    if q:
                        d[i] = [p - q * x for p, x in zip(d[i], dt)]
                        if u is not None:
                            _add_scaled(u[i], u[t], -q)
                        if ui is not None:
                            _add_scaled(ui[t], ui[i], q)
                    if d[i][t]:  # swap rows t and i
                        d[t], d[i] = d[i], d[t]
                        if u is not None:
                            u[t], u[i] = u[i], u[t]
                        if ui is not None:
                            ui[t], ui[i] = ui[i], ui[t]
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    # column j -= q * column t
                    q = d[t][j] // d[t][t]
                    if q:
                        for r in d[t:]:
                            if r[t]:
                                r[j] -= q * r[t]
                        if v is not None:
                            _add_scaled(v[j], v[t], -q)
                    if d[t][j]:  # swap columns t and j
                        for r in d[t:]:
                            r[t], r[j] = r[j], r[t]
                        if v is not None:
                            v[t], v[j] = v[j], v[t]
                        dirty = True
        if d[t][t] < 0:  # negate row t
            d[t] = [-p for p in d[t]]
            if u is not None:
                u[t] = {c: -x for c, x in u[t].items()}
            if ui is not None:
                ui[t] = {r: -x for r, x in ui[t].items()}
        # enforce divisibility of the rest of the submatrix by d[t][t]
        # (nothing to check when it is 1); rows t+1.. are now zero in
        # columns ..t
        p = d[t][t]
        offender = None
        if p != 1:
            for i in range(t + 1, m):
                if any(x % p for x in d[i]):
                    offender = i
                    break
        if offender is None:
            t += 1
        else:  # row t += row offender
            d[t] = [p + x for p, x in zip(d[t], d[offender])]
            if u is not None:
                _add_scaled(u[t], u[offender], 1)
            if ui is not None:
                _add_scaled(ui[offender], ui[t], -1)
    return [d[i][i] for i in range(min(m, n))], u, v, ui


def divide_mod(d: int, b: int, m: int):
    """One z with d*z == b modulo m (exactly when m == 0), or None."""
    g = math.gcd(d, m)
    if g == 0:
        return 0 if b == 0 else None
    if b % g:
        return None
    if m == 0:
        return b // d
    m //= g
    return b // g * pow(d // g, -1, m) % m


# one identity per size, shared: no question writes to a certificate
@functools.lru_cache(maxsize=None)
def _identity(n: int) -> list[dict]:
    return [{i: 1} for i in range(n)]


class Lattice:
    """The Smith certificate of the lattice spanned by the columns of a
    and the lattice rows, built once for every question against it (see
    the module docstring)."""

    __slots__ = ("nrows", "ncols", "rank", "moduli", "u", "v", "uinv")

    def __init__(self, a: list[list[int]], ncols: int, lattice_rows=()):
        nrows = self.nrows = len(a)
        self.ncols = ncols
        if not ((ncols and any(map(any, a)))
                or any(map(any, lattice_rows))):
            self.rank = 0
            self.moduli = [0] * nrows
            self.u = self.uinv = _identity(nrows)
            self.v = []
            return
        ext = [a[i] + [r[i] for r in lattice_rows] for i in range(nrows)]
        # V gives the x of a's ncols columns: with none, x is empty
        diag, u, v, self.uinv = smith_normal_form(
            ext, ncols + len(lattice_rows),
            TRANSFORMS if ncols else ("u", "uinv"))
        rank = self.rank = sum(1 for x in diag if x)  # nonzeros come first
        self.moduli = diag[:rank] + [0] * (nrows - rank)
        self.u = sparse_transpose(u, nrows)
        self.v = [{i: x for i, x in col.items() if i < ncols}
                  for col in v[:rank]] if ncols else [{}] * rank

    def _wrong_length(self, what: str, n: int) -> ValueError:
        return ValueError("%s, the lattice has %d coordinates"
                          % (what % n, self.nrows))

    def contains(self, b: list[int]) -> bool:
        """Does b lie in the lattice?  A zero b does at once, and a nonzero
        one never when the lattice is 0."""
        if len(b) != self.nrows:
            raise self._wrong_length("vector has %d entries", len(b))
        if not any(b):
            return True
        if not self.rank:
            return False
        y = column_combination(self.u, b, self.nrows)
        for i in compress(range(self.nrows), y):
            m = self.moduli[i]
            if not m or y[i] % m:
                return False
        return True

    def solve(self, b: list[int]):
        """One x with a @ x == b modulo the lattice rows, or None: the rows
        past the rank must vanish, then one division per pivot."""
        if len(b) != self.nrows:
            raise self._wrong_length("right-hand side has %d entries", len(b))
        rank = self.rank
        y = column_combination(self.u, b, self.nrows)
        if any(y[rank:]):
            return None
        del y[rank:]
        for k in compress(range(rank), y):
            y[k], r = divmod(y[k], self.moduli[k])
            if r:
                return None
        return column_combination(self.v, y, self.ncols)

    def divide(self, d: int, b: list[int]):
        """One s with d*s == b modulo the lattice, or None.  A zero
        coordinate of U b divides as 0, so only the nonzero ones are
        divided."""
        if len(b) != self.nrows:
            raise self._wrong_length("vector has %d entries", len(b))
        z = column_combination(self.u, b, self.nrows)
        for i in compress(range(self.nrows), z):
            z[i] = divide_mod(d, z[i], self.moduli[i])
            if z[i] is None:
                return None
        return column_combination(self.uinv, z, self.nrows)

    def preimage(self, a: list[list[int]], ncols: int) -> list[list[int]]:
        """Basis of {x : a @ x lies in the lattice}, for a with one row per
        coordinate (`certified_preimage`)."""
        if len(a) != self.nrows:
            raise self._wrong_length("matrix has %d rows", len(a))
        return certified_preimage(self.u, self.moduli, a, ncols)

    def representatives(self):
        """One vector per coset of the lattice, U^-1 y for each y with
        0 <= y_i < moduli[i]; a ValueError if there are infinitely many."""
        if 0 in self.moduli:
            raise ValueError("infinite group")
        for ys in product(*[range(m) for m in self.moduli]):
            yield column_combination(self.uinv, ys, self.nrows)


def sub_basis_coordinates(basis_cols: list[list[int]], k: int,
                          rows: list[list[int]]) -> list[list[int]]:
    """Each row as the integer coefficients of the k independent columns
    of basis_cols: the one x with basis_cols @ x == row, solved exactly
    (not modulo any lattice).  Every row must lie in their span.  No
    lattice is built when there are no rows."""
    if not rows:
        return []
    lattice = Lattice(basis_cols, k)
    out = []
    for row in rows:
        coeffs = lattice.solve(row)
        assert coeffs is not None, "row outside the span of the columns"
        out.append(coeffs)
    return out


def kernel_basis(a: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis (as column vectors, returned as lists) of {x : a @ x == 0}."""
    diag, _, v, _ = smith_normal_form(a, ncols, keep=("v",))
    basis = []
    for j in range(ncols):
        if j >= len(diag) or not diag[j]:
            vec = [0] * ncols
            for i, x in v[j].items():
                vec[i] = x
            basis.append(vec)
    return basis


def row_basis(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Independent rows spanning the same lattice: the rows of U * rows at
    the nonzero diagonal entries of its Smith form U * rows * V == D.  They
    equal d_i times row i of V^-1, since U * rows == D * V^-1."""
    if not rows:
        return []
    diag, u, _, _ = smith_normal_form(rows, ncols, keep=("u",))
    out = []
    for i, di in enumerate(diag):
        if di:
            row = [0] * ncols
            for k, x in u[i].items():
                for j, y in enumerate(rows[k]):
                    row[j] += x * y
            out.append(row)
    return out


def in_lattice(rows: list[list[int]], ncols: int, *vecs: list[int]) -> bool:
    """Is every vec an integer combination of the given rows?  One
    `Lattice` answers them all, and none is built when every vec is
    zero."""
    if not any(map(any, vecs)):
        return True
    # columns are the lattice generators
    lattice = Lattice(transpose(rows, ncols), len(rows))
    return all(map(lattice.contains, vecs))


def solve_mod(a: list[list[int]], ncols: int, b: list[int],
              lattice_rows: list[list[int]]):
    """One x with a @ x == b modulo the lattice spanned by lattice_rows."""
    return Lattice(a, ncols, lattice_rows).solve(b)


def certified_preimage(u_cols, moduli: list[int], a: list[list[int]],
                       ncols: int) -> list[list[int]]:
    """Basis of the lattice {x : a @ x lies in L}, for a lattice L given by
    a Smith certificate: U unimodular, held as sparse columns, and moduli
    with v in L exactly when (U v)_i is 0 modulo moduli[i] (0 = exactly 0).

    Rows of U a of modulus 1 never refuse and are dropped; a row of modulus
    m > 1 gets one column m e_i, so x lies in the preimage exactly when
    (x, y) lies in the kernel of that matrix for some y.  Its m e_i columns
    are independent, so y is fixed by x: the kernel projects injectively
    onto its x coordinates, and one `kernel_basis` gives a basis."""
    if not ncols:
        return []
    kept = [i for i, m in enumerate(moduli) if m != 1]
    pos = {i: p for p, i in enumerate(kept)}  # row of U a -> row here
    mods = [(p, moduli[i]) for p, i in enumerate(kept) if moduli[i]]
    rows = [[0] * (ncols + len(mods)) for _ in pos]
    js = range(ncols)
    for k, ak in enumerate(a):
        nz = [(j, ak[j]) for j in compress(js, ak)]
        if nz:
            for i, x in u_cols[k].items():
                p = pos.get(i)
                if p is not None:
                    row = rows[p]
                    for j, y in nz:
                        row[j] += x * y
    for c, (p, m) in enumerate(mods):
        rows[p][ncols + c] = m
    return [k[:ncols] for k in kernel_basis(rows, ncols + len(mods))]
