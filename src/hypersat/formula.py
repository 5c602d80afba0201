"""CNF core: literal encoding, clauses, formulas, assignments, evaluation
and the exhaustive satisfiability oracle.

Literals are encoded as ints: code = 2*var + 1 for the negated literal -x_var,
code = 2*var for the positive literal x_var. Negation is XOR 1, so it is an
involution and the two polarities of a variable are adjacent codes.
"""

from __future__ import annotations

import io
import math
import random
from itertools import chain
from typing import NamedTuple

Literal = int
Clause = tuple[int, ...]
Assignment = frozenset[int]

# Guardrail for the exhaustive oracle: 2^n assignments are enumerated.
ORACLE_MAX_VARS = 26
# The exhaustive oracle tests up to 2^ORACLE_BLOCK_BITS assignments per step.
ORACLE_BLOCK_BITS = 16


class GuardrailError(ValueError):
    """A size guardrail was exceeded (exhaustive oracle, interaction matrix,
    batch caps)."""


def make_literal(var: int, negative: bool = False) -> Literal:
    return 2 * var + (1 if negative else 0)


def negate(lit: Literal) -> Literal:
    """Flip a literal's polarity; negate(negate(l)) == l."""
    return lit ^ 1


def var_of(lit: Literal) -> int:
    return lit >> 1


def is_negative(lit: Literal) -> bool:
    return bool(lit & 1)


def literal_str(lit: Literal) -> str:
    """Human-readable form: x3 / -x3."""
    return f"-x{lit >> 1}" if lit & 1 else f"x{lit >> 1}"


def _number(text: str, signed: bool = True) -> int:
    """The one rule for a number read from outside: ASCII digits after one
    optional '+' or '-' (when `signed`), so "+3" and "007" are 3 and 7; all
    else, "1_0" and non-ASCII digits too, is a ValueError. It reads DIMACS
    tokens and literals, and every integer the CLI reads: its integer
    options, --gen's n and seed, and --n-range's bounds."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a number: {text!r}")
    return int(text)


def _ratio(text: str) -> float:
    """The one rule for a clause ratio read from outside (--r, --gen's r):
    _number's rule with at most one '.' among the digits, so "4.25", ".5" and
    "0" read; "nan", "inf", "1e308", "1_0.5" and non-ASCII digits are a
    ValueError."""
    _number(text.replace(".", "", 1))
    return float(text)


def parse_literal(text: str) -> Literal:
    r"""Inverse of literal_str: 'x3' or '-x3', its digits read by _number.
    Only DIMACS's separator bytes around it are stripped: space, \t, \n,
    \r, \v and \f."""
    s = text.strip(" \t\n\r\v\f")
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    if s[:1] == "x":
        try:
            return make_literal(_number(s[1:], signed=False), neg)
        except ValueError:
            pass
    raise ValueError(f"not a literal: {text!r}")


def make_clause(literals) -> Clause:
    """Canonicalize a clause: sorted by variable, distinct non-contradictory vars."""
    lits = tuple(sorted(literals, key=var_of))
    seen = set()
    for lit in lits:
        v = var_of(lit)
        if v in seen:
            raise ValueError(f"duplicate or contradictory variable x{v} in clause")
        seen.add(v)
    return lits


class _FormulaFields(NamedTuple):
    n: int
    clauses: tuple[Clause, ...]
    width: int = 3


class Formula(_FormulaFields):
    """A width-k CNF formula over variables x0..x(n-1): a validated tuple of
    (n, clauses, width), so its fields are read-only and it compares and
    hashes by value."""

    __slots__ = ()

    def __new__(cls, n: int, clauses: tuple[Clause, ...], width: int = 3):
        self = super().__new__(cls, n, clauses, width)
        codes = 2 * n
        # Codes 0..2n-1 are the in-range literals; the walk only names a failure.
        if set(map(len, clauses)) <= {width} and (
                min(chain.from_iterable(clauses), default=0) >= 0
                and max(chain.from_iterable(clauses), default=-1) < codes):
            return self
        for cid, clause in enumerate(clauses):
            if len(clause) != width:
                raise ValueError(f"clause {cid} has width {len(clause)}, expected {width}")
            if clause and (min(clause) < 0 or max(clause) >= codes):
                for lit in clause:
                    if not 0 <= var_of(lit) < n:
                        raise ValueError(f"clause {cid}: variable x{var_of(lit)} "
                                         f"out of range [0,{n})")
        return self

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def ratio(self) -> float:
        return self.m / self.n if self.n else 0.0

    def occurrences(self) -> list[list[int]]:
        """Per literal code, the ids of the clauses containing it, ascending."""
        occ: list[list[int]] = [[] for _ in range(2 * self.n)]
        for cid, clause in enumerate(self.clauses):
            for lit in clause:
                occ[lit].append(cid)
        return occ


def formula(n: int, clause_lists, width: int = 3) -> Formula:
    """Build a Formula from raw literal tuples, canonicalizing each clause."""
    return Formula(n=n, clauses=tuple(make_clause(c) for c in clause_lists), width=width)


def check_consistent(literals) -> Assignment:
    """Validate that no variable appears with both polarities."""
    a = frozenset(literals)
    if not a.isdisjoint([lit ^ 1 for lit in a]):   # negate, inlined
        lit = next(lit for lit in a if negate(lit) in a)
        raise ValueError(f"inconsistent assignment: both {literal_str(lit)} and "
                         f"{literal_str(negate(lit))}")
    return a


def assignment_json(literals) -> list[str]:
    """The literals as strings, ascending by variable (one literal per variable)."""
    return [literal_str(lit) for lit in sorted(literals, key=var_of)]


class EvalReport(NamedTuple):
    satisfied_count: int
    unsatisfied_ids: tuple[int, ...]
    fraction: float


def evaluate(f: Formula, a: Assignment) -> EvalReport:
    """Count clauses whose literal set intersects the assignment.

    The assignment is marked in a truth list over the 2n literal codes, so each
    clause costs one lookup per literal; assigned literals outside 0..2n-1 are
    in no clause and are ignored. The empty formula evaluates to fraction 1.0
    (vacuous conjunction).
    """
    a = check_consistent(a)
    codes = 2 * f.n
    val = [False] * codes
    for lit in a:
        if 0 <= lit < codes:
            val[lit] = True
    if f.width == 3:
        unsat = tuple(cid for cid, (x, y, z) in enumerate(f.clauses)
                      if not (val[x] or val[y] or val[z]))
    else:
        unsat = tuple(cid for cid, clause in enumerate(f.clauses)
                      if not any(val[lit] for lit in clause))
    sat = f.m - len(unsat)
    return EvalReport(sat, unsat, sat / f.m if f.m else 1.0)


def _falsifying_columns(low: int) -> list[int]:
    """Per literal code over x0..x(low-1), the 2^low-bit word whose bit s is
    set when word s falsifies the literal: bit v of s is 1 when x_v is true.

    Built by doubling: the columns over 2w bits are the columns over w bits
    repeated twice, plus the new variable's column, w zeros then w ones.
    """
    columns: list[int] = []
    w = 1
    for _ in range(low):
        columns = [c | (c << w) for c in columns]
        columns.append(((1 << w) - 1) << w)
        w <<= 1
    full = (1 << w) - 1
    falsifying = []
    for column in columns:
        falsifying += [full ^ column, column]   # x_v false / -x_v false
    return falsifying


def solve_exhaustive(f: Formula, cap: int = 10) -> list[Assignment]:
    """Enumerate all 2^n complete assignments; return up to `cap` satisfying ones.

    Word s sets x_v true when bit v of s is 1, and the result lists solutions
    in ascending word order. The low L = min(n, ORACLE_BLOCK_BITS) variables
    index the bits of a 2^L-bit block word and the high n - L variables the
    block, so each of the 2^(n-L) blocks is tested at once: a clause's
    falsified words in a block are the AND of its low literals' falsifying
    columns, present only in blocks whose high bits falsify its high literals.
    Clauses are grouped by that high pattern, ORing their low words, so memory
    grows with the number of distinct high patterns, not with m.

    An empty result means UNSAT. Refuses n > ORACLE_MAX_VARS.
    """
    if f.n > ORACLE_MAX_VARS:
        raise GuardrailError(f"exhaustive oracle limited to n <= {ORACLE_MAX_VARS}, got n = {f.n}")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = f.n
    low = min(n, ORACLE_BLOCK_BITS)
    falsifying = _falsifying_columns(low)
    full = (1 << (1 << low)) - 1
    # (high variable mask, falsifying high bits) -> OR of the group's low words.
    groups: dict[tuple[int, int], int] = {}
    for clause in f.clauses:
        word = full
        hv = hf = 0
        for lit in clause:
            v = var_of(lit)
            if v < low:
                word &= falsifying[lit]
            else:
                bit = 1 << (v - low)
                hv |= bit
                if is_negative(lit):
                    hf |= bit
        groups[hv, hf] = groups.get((hv, hf), 0) | word
    found: list[Assignment] = []
    for hi in range(1 << (n - low)):
        bad = 0
        for (hv, hf), word in groups.items():
            if hi & hv == hf:
                bad |= word
        good = full ^ bad
        if not good:
            continue
        # x_v is 2v when true, 2v + 1 when false.
        high = [2 * v + 1 - (hi >> (v - low) & 1) for v in range(low, n)]
        # Bit p of good is at index top - p of its binary text, so searching
        # the text leftwards yields the block's solutions in ascending order.
        bits = bin(good)
        top = len(bits) - 1
        at = top + 1
        while (at := bits.rfind("1", 0, at)) != -1:
            s = top - at
            found.append(frozenset([2 * v + 1 - (s >> v & 1) for v in range(low)] + high))
            if len(found) >= cap:
                return found
    return found


# Random.sample(range(n), k) draws from a copy of the population when n is at
# most this and by rejection above it, for k <= 5.
SAMPLE_POOL_MAX = 21


def random_formula(n: int, r: float, seed: int, k: int = 3) -> Formula:
    """Generate a random width-k instance with m = round(r*n) distinct clauses.

    Each clause samples k distinct variables uniformly with independent fair
    polarities; duplicate clauses are rejected and resampled. Uses Python's
    random.Random (Mersenne Twister), so a seed fully determines the instance
    across platforms.

    The variables of a clause are sorted(rng.sample(range(n), k)), then one
    getrandbits(1) per variable in sorted order is its polarity. For k = 3
    the sample is replayed from getrandbits rather than called, in both of
    its branches: sample's randbelow(s) is getrandbits(s.bit_length()),
    redrawn while the result is >= s, as in CPython 3.10 to 3.13. The replay
    draws the same bits, so every seed keeps the instance rng.sample gave it.
    Every other k calls rng.sample.
    """
    if n < k:
        raise ValueError(f"need n >= k, got n = {n}, k = {k}")
    if not (r >= 0 and math.isfinite(r * n)):
        raise ValueError(f"need a ratio r >= 0 with r * n finite, got r = {r}, n = {n}")
    m = round(r * n)
    distinct = math.comb(n, k) * (1 << k)
    if m > distinct:
        raise ValueError(f"cannot draw {m} distinct width-{k} clauses over {n} variables "
                         f"(only {distinct} exist)")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    chosen: dict[Clause, None] = {}   # insertion-ordered; a repeated clause is dropped
    if k == 3:
        pool = n <= SAMPLE_POOL_MAX
        bits, bits1, bits2 = n.bit_length(), (n - 1).bit_length(), (n - 2).bit_length()
        while len(chosen) < m:
            x = getrandbits(bits)
            while x >= n:
                x = getrandbits(bits)
            if pool:
                # sample's pool branch takes pool[j] for j below n, n - 1 and
                # n - 2, moving the pool's last entry into slot j after each
                # draw, so an index drawn again reads the entry moved there.
                y = getrandbits(bits1)
                while y >= n - 1:
                    y = getrandbits(bits1)
                z = getrandbits(bits2)
                while z >= n - 2:
                    z = getrandbits(bits2)
                if z == y:
                    z = n - 1 if x == n - 2 else n - 2
                elif z == x:
                    z = n - 1
                if y == x:
                    y = n - 1
            else:
                # The rejection branch redraws j while j >= n or j is already chosen.
                y = getrandbits(bits)
                while y >= n or y == x:
                    y = getrandbits(bits)
                z = getrandbits(bits)
                while z >= n or z == x or z == y:
                    z = getrandbits(bits)
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
                if x > y:
                    x, y = y, x
            chosen[2 * x + getrandbits(1), 2 * y + getrandbits(1), 2 * z + getrandbits(1)] = None
    else:
        while len(chosen) < m:
            chosen[tuple(2 * v + getrandbits(1) for v in sorted(rng.sample(range(n), k)))] = None
    return Formula(n=n, clauses=tuple(chosen), width=k)


def _csv_text(header: list[str], rows) -> str:
    """The header and rows as CSV text, each row ending in a bare newline:
    the form of every CSV file the CLI writes."""
    import csv   # here, so that only commands writing CSV load it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
