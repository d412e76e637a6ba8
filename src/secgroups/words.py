"""Pointed sets and free-group words.

Words are stored as run-length letters (symbol, exponent).  `reduced` does
free reduction; that is the whole word problem for free groups, so word
equality is `reduced` equality.
"""

from __future__ import annotations

BASEPOINT = "*"


class PointedSet:
    """A finite set with a distinguished basepoint (always named *)."""

    def __init__(self, symbols):
        syms = list(symbols)
        if BASEPOINT not in syms:
            syms = [BASEPOINT] + syms
        if len(set(syms)) != len(syms):
            raise ValueError("duplicate symbols")
        self.symbols = syms

    def nonbase(self) -> list[str]:
        return [s for s in self.symbols if s != BASEPOINT]

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, s):
        return s in self.symbols

    def __eq__(self, other):
        return isinstance(other, PointedSet) and set(self.symbols) == set(other.symbols)

    def __repr__(self):
        return "PointedSet(%r)" % (self.nonbase(),)


class Word:
    """Free-group word as a list of (symbol, exponent) runs."""

    def __init__(self, letters=()):
        self.letters = [(s, int(e)) for s, e in letters if e]

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse words like  a b^-1 a^2 ; '1' or '' is the empty word."""
        letters = []
        for tok in text.split():
            if tok == "1":
                continue
            if "^" in tok:
                sym, exp = tok.split("^", 1)
                letters.append((sym, int(exp)))
            else:
                letters.append((tok, 1))
        return cls(letters)

    def reduced(self) -> "Word":
        out: list[list] = []
        for sym, exp in self.letters:
            if out and out[-1][0] == sym:
                out[-1][1] += exp
                if out[-1][1] == 0:
                    out.pop()
            else:
                out.append([sym, exp])
        return Word([(s, e) for s, e in out])

    def inverse(self) -> "Word":
        return Word([(s, -e) for s, e in reversed(self.letters)])

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters).reduced()

    def __pow__(self, k: int) -> "Word":
        """The reduced k-th power: one free reduction of k copies."""
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.letters * k).reduced()

    def conjugate_by(self, other: "Word") -> "Word":
        """other^-1 * self * other."""
        return other.inverse() * self * other

    def is_trivial(self) -> bool:
        return not self.reduced().letters

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.reduced().letters == other.reduced().letters

    def __hash__(self):
        return hash(tuple(self.reduced().letters))

    def exponent_sums(self, symbols) -> list[int]:
        sums = {s: 0 for s in symbols}
        for s, e in self.letters:
            sums[s] += e
        return [sums[s] for s in symbols]

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(s if e == 1 else "%s^%d" % (s, e)
                        for s, e in self.letters)

    def __repr__(self):
        return "Word(%s)" % str(self)


def commutator_word(u: Word, v: Word) -> Word:
    return (u.inverse() * v.inverse() * u * v).reduced()
