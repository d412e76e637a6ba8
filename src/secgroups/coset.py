"""Bounded coset enumeration for finitely presented groups.

An HLT-style Todd-Coxeter over the trivial subgroup (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, section 5.1), run as one
loop over the cosets in the order they were defined.  At each coset c that
is still live:

- each relator in turn is scanned forward from c: the scan follows the
  table, defines a new coset at every empty slot up to the relator's end,
  and then coincides the coset it reached with c;
- a coincidence keeps the smaller coset as the representative (so every
  class is named by its least coset) and queues the dead coset's row
  entries; the queue is drained last in, first out, after every relator
  scan, and each entry either fills an empty slot of a live row or names
  the next pair to coincide;
- then c's own row is filled, one new coset per empty slot.  If c died
  during its own scans, its dead row is still the one read, and the new
  coset hangs off c's representative; where the representative's slot is
  already taken, the new coset is merged away at once.

One sweep completes the table: every coset that survives it got a full row
and closed relator cycles when the sweep passed it, and coincidences keep
both.

The cap counts every coset ever defined, including those later merged away
by coincidences (and those the fill of a dead coset defines), not only the
live ones.  Hitting it raises `EnumerationCapExceeded`, which callers
surface as undecidability of the exact question within the allotted
budget.  The order of work above fixes which cosets are defined, so it
fixes which inputs hit a given cap.

Rows are one list per coset.  A single flat list for the whole table runs
as fast, but it allocates almost no container objects, so the cyclic
garbage collector runs far less often; on the coset-orders benchmark that
kept more garbage alive and raised peak memory by 16-22%.
"""

from __future__ import annotations

from .words import Word

DEFAULT_CAP = 10_000


class EnumerationCapExceeded(RuntimeError):
    pass


class FinitelyPresentedGroup:
    """Generators plus relator words; nothing is computed eagerly.

    A repeated generator, or a relator letter that is not a generator,
    raises `ValueError` naming it."""

    def __init__(self, generators, relators):
        self.generators = list(generators)
        seen = set()
        for g in self.generators:
            if g in seen:
                raise ValueError("duplicate generator %r" % (g,))
            seen.add(g)
        self.relators = [r.reduced() for r in relators]
        for r in self.relators:
            for sym, _ in r.letters:
                if sym not in seen:
                    raise ValueError("relator %s: letter %r is not a "
                                     "generator" % (r, sym))

    def __repr__(self):
        return "FinitelyPresentedGroup(<%s | %s>)" % (
            " ".join(self.generators) or "-",
            ", ".join(str(r) for r in self.relators) or "-")

    def abelianization(self):
        from .abelian import FinAbGroup
        rows = [r.exponent_sums(self.generators) for r in self.relators]
        return FinAbGroup(len(self.generators), rows)

    def order(self, cap: int = DEFAULT_CAP) -> int:
        """Group order by coset enumeration over the trivial subgroup."""
        return todd_coxeter(self, cap=cap)


def _word_to_ints(w: Word, index: dict) -> list[int]:
    out = []
    for sym, exp in w.letters:
        g = index[sym]
        step = 2 * g if exp > 0 else 2 * g + 1
        out.extend([step] * abs(exp))
    return out


def todd_coxeter(group: FinitelyPresentedGroup, cap: int = DEFAULT_CAP) -> int:
    """Number of cosets of the trivial subgroup (the group order) if the
    enumeration completes within `cap` defined cosets.

    The cap counts every coset ever defined, including those later merged
    away by coincidences, not only the live ones."""
    gens = group.generators
    if not gens:
        return 1
    index = {g: i for i, g in enumerate(gens)}
    width = 2 * len(gens)  # columns: g0, g0^-1, g1, g1^-1, ...
    relator_ints = [_word_to_ints(r, index) for r in group.relators
                    if r.letters]
    table = [[None] * width]
    reps = [0]  # union-find; the representative is the least coset
    pending = []  # (dead coset, column, entry) to re-enter, LIFO

    def find(c):
        while reps[c] != c:
            reps[c] = reps[reps[c]]
            c = reps[c]
        return c

    n = 1  # cosets defined so far, dead ones included: len(table)
    c = 0
    while c < n:
        if reps[c] != c:
            c += 1
            continue
        for word in relator_ints:
            # forward scan from c, defining cosets up to the relator's end
            f = c
            for step in word:
                if reps[f] != f:
                    f = find(f)
                row = table[f]
                nxt = row[step]
                if nxt is None:
                    if n >= cap:
                        raise EnumerationCapExceeded(
                            "coset cap %d exceeded" % cap)
                    nxt = n
                    n += 1
                    new = [None] * width
                    new[step ^ 1] = f
                    table.append(new)
                    reps.append(nxt)
                    row[step] = nxt
                f = nxt
            # coincide the end with c, then drain the queue; each popped
            # entry either fills a slot or names the next pair to coincide
            a = f if reps[f] == f else find(f)
            b = c if reps[c] == c else find(c)
            while True:
                if a != b:
                    if a > b:
                        a, b = b, a
                    reps[b] = a
                    for col, v in enumerate(table[b]):
                        if v is not None:
                            pending.append((b, col, v))
                if not pending:
                    break
                b, col, v = pending.pop()
                if reps[b] != b:
                    b = find(b)
                if reps[v] != v:
                    v = find(v)
                a = table[b][col]
                if a is not None:
                    if reps[a] != a:
                        a = find(a)
                    if a != v:
                        b = v
                        continue
                table[b][col] = v
                a = table[v][col ^ 1]
                if a is not None:
                    if reps[a] != a:
                        a = find(a)
                    if a != b:
                        continue
                table[v][col ^ 1] = b
                a = b  # nothing to coincide
        # fill c's own row: a coset that died during its scans still reads
        # its dead row and defines from its representative (see the module
        # docstring); no live pair coincides here, so the queue stays empty
        row = table[c]
        if None in row:
            for col in range(width):
                if row[col] is not None:
                    continue
                if n >= cap:
                    raise EnumerationCapExceeded(
                        "coset cap %d exceeded" % cap)
                d = n
                n += 1
                table.append([None] * width)
                r = find(c)
                cur = table[r][col]
                if cur is None:
                    table[r][col] = d
                    table[d][col ^ 1] = r
                    reps.append(d)
                else:
                    reps.append(find(cur))
        c += 1
    return sum(1 for i, r in enumerate(reps) if r == i)
