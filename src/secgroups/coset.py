"""Bounded coset enumeration for finitely presented groups.

A plain HLT-style Todd-Coxeter: scan relators over a coset table, define new
cosets as needed, merge on coincidences.  The enumeration is capped; hitting
the cap raises `EnumerationCapExceeded`, which callers surface as
undecidability of the exact question within the allotted budget.
"""

from __future__ import annotations

from .words import Word

DEFAULT_CAP = 10_000


class EnumerationCapExceeded(RuntimeError):
    pass


class FinitelyPresentedGroup:
    """Generators plus relator words; nothing is computed eagerly."""

    def __init__(self, generators, relators):
        self.generators = list(generators)
        self.relators = [r.reduced() for r in relators]

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
    ngen = len(gens)
    width = 2 * ngen  # columns: g0, g0^-1, g1, g1^-1, ...
    relator_ints = [_word_to_ints(r, index) for r in group.relators
                    if r.letters]
    table = [[None] * width]
    reps = [0]  # union-find for coincidences

    def find(c):
        while reps[c] != c:
            reps[c] = reps[reps[c]]
            c = reps[c]
        return c

    pending = []

    def merge(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        reps[b] = a
        for col in range(width):
            v = table[b][col]
            if v is not None:
                pending.append((b, col, v))

    def set_entry(c, col, d):
        c, d = find(c), find(d)
        inv = col ^ 1
        cur = table[c][col]
        if cur is not None and find(cur) != d:
            merge(find(cur), d)
            return
        table[c][col] = d
        cur2 = table[d][inv]
        if cur2 is not None and find(cur2) != c:
            merge(find(cur2), c)
        else:
            table[d][inv] = c

    def define(c, col):
        if len(table) >= cap:
            raise EnumerationCapExceeded(
                "coset cap %d exceeded" % cap)
        table.append([None] * width)
        reps.append(len(table) - 1)
        d = len(table) - 1
        set_entry(c, col, d)
        return d

    def scan(c, word):
        # forward scan, defining as needed (HLT)
        f = c
        for step in word:
            f = find(f)
            nxt = table[f][step]
            if nxt is None:
                nxt = define(f, step)
            f = find(nxt)
        merge(f, c)

    changed = True
    while changed:
        changed = False
        c = 0
        while c < len(table):
            if find(c) == c:
                for word in relator_ints:
                    scan(c, word)
                    while pending:
                        b, col, v = pending.pop()
                        set_entry(find(b), col, find(v))
                for col in range(width):
                    if table[c][col] is None:
                        define(c, col)
                        changed = True
                    while pending:
                        b, col2, v = pending.pop()
                        set_entry(find(b), col2, find(v))
            c += 1
    live = {find(c) for c in range(len(table))}
    return len(live)
