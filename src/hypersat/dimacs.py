r"""DIMACS CNF reading and writing.

Variable v in a DIMACS file maps to index v-1; negative numbers are negated
literals. emit/parse round-trip exactly on canonical formulas.

What parse_dimacs accepts: ASCII bytes, a `str` being read as its UTF-8
bytes, so any non-ASCII character is a non-ASCII byte. A line ends at
"\n", "\r\n" or "\r", and tokens are separated by runs of space, "\t",
"\n", "\r", "\v" and "\f" (C's isspace); no other byte ends a line or
separates tokens. It takes blank lines and lines starting with "c"
anywhere; one "p cnf <n> <m>" header before the first clause; then one
clause per line, ended by a 0 token. A number, in a clause or in the
header, is an optional sign and ASCII digits (formula._number), so "+3" and
"007" are variables 3 and 7 and "-0" or "00" is a 0; "1_0" is refused. Each
clause must have exactly `width` literals over distinct variables in 1..n,
and there must be exactly m clauses. A repeated clause is kept, with a
warning naming its line.
"""

from __future__ import annotations

import warnings

from .formula import Clause, Formula, Literal, _number, is_negative, make_clause, var_of

_COMMENT, _HEADER = b"cp"   # the first byte of a comment line and of the header line


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _LiteralCodes(dict):
    """Token -> literal code, checked and converted on a token's first sight;
    holds one entry per distinct token read. A 0 token gets the code -2, the
    only negative one, and a variable past n a code of at least 2n. Raises
    ValueError for a token that is not a DIMACS number."""

    def __missing__(self, token: bytes) -> Literal:
        num = _number(token.decode())
        code = self[token] = 2 * abs(num) - 2 + (num < 0)
        return code


def parse_dimacs(text: str | bytes, width: int = 3) -> Formula:
    """Parse DIMACS CNF text into a width-`width` Formula.

    Rejects, with the line number: a non-ASCII byte, a missing or malformed
    header, clauses of the wrong width, duplicate/contradictory literals
    inside a clause, and out-of-range variables. Duplicate clauses are kept
    but warned about.

    Each clause line is split once and its tokens read through a memo, so
    the time is linear in the text; nothing is sized by the header's n.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    if not data.isascii():
        at = len(data) - len(data.lstrip(bytes(range(128))))   # the first non-ASCII byte
        # The byte's line, numbered as the splitlines loop below numbers it.
        line = len((data[:at] + b"x").splitlines())
        raise DimacsError(line, f"non-ASCII byte 0x{data[at]:02x}")
    lines = data.splitlines()
    n = m = -1
    header_line = 0
    limit = 0   # 2n: the in-range literal codes are 0..limit-1
    codes_of = _LiteralCodes()
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == _COMMENT:
            continue
        if tokens[0][0] == _HEADER:
            line = raw.strip().decode()
            if n >= 0:
                raise DimacsError(lineno, "duplicate 'p cnf' header")
            if len(tokens) != 4 or tokens[0] != b"p" or tokens[1] != b"cnf":
                raise DimacsError(lineno, f"malformed header {line!r}, expected 'p cnf <n> <m>'")
            try:
                n, m = _number(tokens[2].decode()), _number(tokens[3].decode())
            except ValueError:
                raise DimacsError(lineno, f"non-integer counts in header {line!r}") from None
            if n < 0 or m < 0:
                raise DimacsError(lineno, "negative counts in header")
            header_line = lineno
            limit = 2 * n
            continue
        if n < 0:
            raise DimacsError(lineno, "clause before 'p cnf' header")
        clause = None
        if width == 3 and len(tokens) == 4:
            # The common line, read without a list. Any failed check leaves
            # it to the general path below, which names the failure.
            try:
                a, b, c, zero = map(codes_of.__getitem__, tokens)
            except ValueError:
                zero = 0
            if zero == -2:   # the code of a 0 token
                # Three compare-swaps sort the codes, and with them the variables.
                if a > b:
                    a, b = b, a
                if b > c:
                    b, c = c, b
                if a > b:
                    a, b = b, a
                if a >= 0 and c < limit and a >> 1 != b >> 1 != c >> 1:
                    clause = (a, b, c)
        if clause is None:
            try:
                codes = list(map(codes_of.__getitem__, tokens))
            except ValueError:
                raise DimacsError(lineno, f"non-integer token in clause {raw.strip().decode()!r}") from None
            if codes.pop() != -2:
                raise DimacsError(lineno, "clause not terminated by 0")
            if len(codes) != width:
                raise DimacsError(lineno, f"clause width {len(codes)}, expected {width}")
            if codes and (min(codes) < 0 or max(codes) >= limit):
                # The walk only names the failure: the first bad token in line order.
                for code in codes:
                    if code < 0:
                        raise DimacsError(lineno, "embedded 0 inside clause")
                    if code >= limit:
                        raise DimacsError(lineno, f"variable {code // 2 + 1} out of range 1..{n}")
            try:
                clause = make_clause(codes)
            except ValueError as exc:
                raise DimacsError(lineno, str(exc)) from None
        if clause in seen:
            warnings.warn(f"line {lineno}: duplicate clause", stacklevel=2)
        seen.add(clause)
        clauses.append(clause)
    if n < 0:
        raise DimacsError(max(1, len(lines)), "missing 'p cnf' header")
    if len(clauses) != m:
        raise DimacsError(header_line, f"header promises {m} clauses, found {len(clauses)}")
    return Formula(n=n, clauses=tuple(clauses), width=width)


def literal_to_dimacs(lit: int) -> int:
    v = var_of(lit) + 1
    return -v if is_negative(lit) else v


def clause_texts(clauses) -> list[str]:
    """Each clause as its DIMACS line without the closing " 0", rendered
    through one table over the literal codes that occur."""
    names = {lit: str(literal_to_dimacs(lit)) for lit in {lit for c in clauses for lit in c}}
    return [" ".join(map(names.__getitem__, c)) for c in clauses]


def emit_dimacs(f: Formula, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"c {c}" for c in comment.splitlines())
    lines.append(f"p cnf {f.n} {f.m}")
    text = "\n".join(lines) + "\n"
    if f.clauses:
        text += " 0\n".join(clause_texts(f.clauses)) + " 0\n"
    return text
