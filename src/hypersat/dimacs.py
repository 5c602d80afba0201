"""DIMACS CNF reading and writing.

Variable v in a DIMACS file maps to index v-1; negative numbers are negated
literals. emit/parse round-trip exactly on canonical formulas.
"""

from __future__ import annotations

import warnings

from .formula import Clause, Formula, make_clause, make_literal, var_of, is_negative


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_dimacs(text: str | bytes, width: int = 3) -> Formula:
    """Parse DIMACS CNF text into a width-`width` Formula.

    Rejects, with the line number: a non-ASCII byte, a missing or malformed
    header, clauses of the wrong width, duplicate/contradictory literals
    inside a clause, and out-of-range variables. Duplicate clauses are kept
    but warned about.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            # The byte's line, numbered as the splitlines loop below numbers it.
            line = len((text[:exc.start] + b"x").decode("ascii").splitlines())
            raise DimacsError(line, f"non-ASCII byte 0x{text[exc.start]:02x}") from None
    n = m = -1
    header_line = 0
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n >= 0:
                raise DimacsError(lineno, "duplicate 'p cnf' header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(lineno, f"malformed header {line!r}, expected 'p cnf <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(lineno, f"non-integer counts in header {line!r}") from None
            if n < 0 or m < 0:
                raise DimacsError(lineno, "negative counts in header")
            header_line = lineno
            continue
        if n < 0:
            raise DimacsError(lineno, "clause before 'p cnf' header")
        try:
            numbers = [int(tok) for tok in line.split()]
        except ValueError:
            raise DimacsError(lineno, f"non-integer token in clause {line!r}") from None
        if not numbers or numbers[-1] != 0:
            raise DimacsError(lineno, "clause not terminated by 0")
        numbers = numbers[:-1]
        if len(numbers) != width:
            raise DimacsError(lineno, f"clause width {len(numbers)}, expected {width}")
        lits = []
        for num in numbers:
            if num == 0:
                raise DimacsError(lineno, "embedded 0 inside clause")
            v = abs(num) - 1
            if v >= n:
                raise DimacsError(lineno, f"variable {abs(num)} out of range 1..{n}")
            lits.append(make_literal(v, negative=num < 0))
        try:
            clause = make_clause(lits)
        except ValueError as exc:
            raise DimacsError(lineno, str(exc)) from None
        if clause in seen:
            warnings.warn(f"line {lineno}: duplicate clause", stacklevel=2)
        seen.add(clause)
        clauses.append(clause)
    if n < 0:
        raise DimacsError(max(1, len(text.splitlines())), "missing 'p cnf' header")
    if len(clauses) != m:
        raise DimacsError(header_line, f"header promises {m} clauses, found {len(clauses)}")
    return Formula(n=n, clauses=tuple(clauses), width=width)


def literal_to_dimacs(lit: int) -> int:
    v = var_of(lit) + 1
    return -v if is_negative(lit) else v


def emit_dimacs(f: Formula, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"c {c}" for c in comment.splitlines())
    lines.append(f"p cnf {f.n} {f.m}")
    for clause in f.clauses:
        lines.append(" ".join(str(literal_to_dimacs(lit)) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
