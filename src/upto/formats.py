"""Parsers and serializers: Aldebaran .aut systems, relation and lattice files.

The .aut grammar is the single interchange format for transition systems;
relations and lattices use small JSON documents (with a plain line-per-pair
text form for relations).  Lattice orders and progressions are parsed
straight into row-bitset ``Relation``s over element indices; a lattice given
by its cover pairs is closed into its order in one Warshall pass over the
rows, one step per element.  All rendered output is canonically sorted so
repeated runs are byte-identical.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import TYPE_CHECKING, NamedTuple, Optional

from .lts import MAX_LATTICE_ELEMENTS, MAX_STATES, Lts, Relation

# upto.lattice is imported by parse_lattice and parse_progression only, and
# json by the JSON parsers, so the commands on .aut files start without them
if TYPE_CHECKING:
    from .lattice import FiniteLattice, LatticeProgression


class AutParseError(ValueError):
    pass


class RelationParseError(ValueError):
    pass


class LatticeParseError(ValueError):
    pass


# re.ASCII: \d would also match other scripts' digits, which int() accepts
_HEADER_RE = re.compile(r"^des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$", re.ASCII)
_EDGE_RE = re.compile(r"^\(\s*(\d+)\s*,\s*\"(.*)\"\s*,\s*(\d+)\s*\)\s*$", re.ASCII)
# pairs per rendered relation: 10**6 pairs of 3-digit names print about 11 MB
MAX_RENDERED_PAIRS = 10**6


class AutDocument(NamedTuple):
    header: tuple[int, int, int]  # (initial state, transition count, state count)
    body: tuple[tuple[int, str, int], ...]


def parse_aut_document(text: str) -> AutDocument:
    # one pass over the lines, each stripped once: the first non-blank one is the header
    lines = ((i, line) for i, line in enumerate(map(str.strip, text.splitlines()), 1) if line)
    head_no, header = next(lines, (1, ""))
    if not header:
        raise AutParseError("line 1: missing header 'des (initial, transitions, states)'")
    hm = _HEADER_RE.match(header)
    if hm is None:
        raise AutParseError(f"line {head_no}: malformed header {header!r}")
    initial, m, n = (int(g) for g in hm.groups())
    if n > 0 and initial >= n:
        raise AutParseError(f"line {head_no}: initial state {initial} out of range for {n} states")
    if n == 0:
        raise AutParseError(f"line {head_no}: state count must be positive")
    if n > MAX_STATES:
        raise AutParseError(f"line {head_no}: {n} states; at most {MAX_STATES} are built")

    body = []
    for line_no, line in lines:
        em = _EDGE_RE.match(line)
        if em is None:
            if line.count('"') < 2:
                raise AutParseError(f"line {line_no}: unterminated quote in {line!r}")
            raise AutParseError(f"line {line_no}: malformed transition {line!r}")
        src, label, dst = em.groups()
        src, dst = int(src), int(dst)
        if not label:
            raise AutParseError(f"line {line_no}: empty label")
        if src >= n or dst >= n:
            raise AutParseError(
                f"line {line_no}: state index out of range (states: 0..{n - 1})"
            )
        body.append((src, label, dst))
    if len(body) != m:
        raise AutParseError(
            f"line {head_no}: header declares {m} transitions, found {len(body)}"
        )
    return AutDocument(header=(initial, m, n), body=tuple(body))


def parse_aut(text: str) -> Lts:
    doc = parse_aut_document(text)
    return Lts([str(i) for i in range(doc.header[2])], doc.body)


def render_aut(lts: Lts, initial: int = 0) -> str:
    lines = [f"des ({initial},{lts.n_transitions},{lts.n_states})"]
    lines.extend(f'({src},"{label}",{dst})' for src, label, dst in lts.triples())
    return "\n".join(lines) + "\n"


def _is_one_line(value) -> bool:
    """A string that str.splitlines leaves whole, so it prints as one line."""
    return isinstance(value, str) and value.splitlines() in ([], [value])


class RelationDocument(NamedTuple):
    pairs: tuple[tuple[str, str], ...]
    name: Optional[str] = None


@contextmanager
def _nesting_limit(error: type[ValueError], what: str):
    """Turn a RecursionError, which json.loads raises on deeply nested
    arrays and str() or repr() can raise on a deep entry, into error."""
    try:
        yield
    except RecursionError:
        raise error(f"{what} is nested too deeply") from None


@_nesting_limit(RelationParseError, "relation document")
def parse_relation_document(text: str) -> RelationDocument:
    stripped = text.strip()
    if not stripped:
        return RelationDocument(pairs=())
    if stripped[0] in "{[":
        import json
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as e:
            raise RelationParseError(f"invalid JSON relation document: {e}") from None
        name = None
        if isinstance(data, dict):
            name = data.get("name")
            data = data.get("pairs")
        # the name is printed on a report line of its own
        if name is not None and not _is_one_line(name):
            raise RelationParseError(f"relation name {name!r} must be a string on one line")
        if not isinstance(data, list):
            raise RelationParseError("relation document must contain a list of pairs")
        pairs = []
        for entry in data:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise RelationParseError(f"bad relation pair {entry!r}")
            pairs.append((str(entry[0]), str(entry[1])))
        return RelationDocument(pairs=tuple(pairs), name=name)

    pairs = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise RelationParseError(
                f"line {line_no}: expected two states per line, got {line!r}"
            )
        pairs.append((tokens[0], tokens[1]))
    return RelationDocument(pairs=tuple(pairs))


def resolve_relation(doc: RelationDocument, lts: Lts) -> Relation:
    """The relation a parsed relation file names on lts; duplicates collapse."""
    # display names win over raw indices when both could apply
    index = {name: i for i, name in enumerate(lts.state_names)}

    def resolve(token: str) -> int:
        if token in index:
            return index[token]
        if token.isascii() and token.isdigit() and int(token) < lts.n_states:
            return int(token)
        raise RelationParseError(f"cannot resolve state {token!r}")

    return Relation.from_pairs(lts.n_states, [(resolve(a), resolve(b)) for a, b in doc.pairs])


def render_relation(r: Relation, names: Optional[tuple[str, ...]] = None) -> str:
    # len(r) is a popcount (a stratum knows it), so an oversized relation
    # lists no pair; the others are iterated, so a printed stratum keeps none
    size = len(r)
    if size > MAX_RENDERED_PAIRS:
        raise ValueError(f"relation has {size} pairs; at most {MAX_RENDERED_PAIRS} are rendered")
    names = range(r.n_states) if names is None else names
    return "{" + ", ".join(f"({names[p]},{names[q]})" for p, q in r) + "}"


class LatticeDocument(NamedTuple):
    elements: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    kind: str  # "cover" or "leq"


@_nesting_limit(LatticeParseError, "lattice document")
def parse_lattice_document(text: str) -> LatticeDocument:
    import json
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise LatticeParseError(f"invalid JSON lattice document: {e}") from None
    if not isinstance(data, dict) or not isinstance(data.get("elements"), list):
        raise LatticeParseError("lattice document must be an object with an 'elements' list")
    m = len(data["elements"])
    if m > MAX_LATTICE_ELEMENTS:
        limit = MAX_LATTICE_ELEMENTS
        raise LatticeParseError(f"lattice has {m} elements; at most {limit} are built")
    # element names are printed inside report lines
    for e in data["elements"]:
        if not _is_one_line(e):
            raise LatticeParseError(f"lattice element name {e!r} must be a string on one line")
    elements = tuple(data["elements"])
    have = [k for k in ("cover", "leq") if k in data]
    if len(have) != 1:
        raise LatticeParseError("lattice document needs exactly one of 'cover' or 'leq'")
    kind = have[0]
    if not isinstance(data[kind], list):
        raise LatticeParseError(f"lattice document's {kind!r} must be a list of pairs")
    pairs = []
    for entry in data[kind]:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise LatticeParseError(f"bad order pair {entry!r}")
        pairs.append((str(entry[0]), str(entry[1])))
    return LatticeDocument(elements=elements, pairs=tuple(pairs), kind=kind)


def parse_lattice(text: str) -> FiniteLattice:
    """Parse and validate a lattice; a cover is closed first, from its rows
    with the diagonal set: for each k, every row holding k takes in row k."""
    from .lattice import validate_lattice

    doc = parse_lattice_document(text)
    index = {name: i for i, name in enumerate(doc.elements)}
    m = len(doc.elements)
    for a, b in doc.pairs:
        if a not in index or b not in index:
            raise LatticeParseError(f"order pair ({a!r}, {b!r}) names unknown elements")
    order = Relation.from_pairs(m, [(index[a], index[b]) for a, b in doc.pairs])
    if doc.kind == "cover":
        rows = [row | 1 << x for x, row in enumerate(order.row_bits)]
        for k in range(m):
            bit, row_k = 1 << k, rows[k]
            rows = [row | row_k if row & bit else row for row in rows]
        order = Relation._from_rows(m, tuple(rows))
    return validate_lattice(doc.elements, order)


def parse_progression(text: str, lattice: FiniteLattice) -> LatticeProgression:
    """Parse a relation over lattice elements and validate it as a progression."""
    from .lattice import LatticeProgression

    doc = parse_relation_document(text)
    try:
        pairs = [(lattice.index(a), lattice.index(b)) for a, b in doc.pairs]
    except KeyError as e:
        raise LatticeParseError(str(e.args[0])) from None
    return LatticeProgression(lattice, Relation.from_pairs(lattice.size, pairs))


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(lts: Lts, graph_name: str = "lts") -> str:
    """DOT rendering of the transition graph, canonically ordered."""
    lines = [f"digraph {graph_name} {{", "  rankdir=LR;"]
    for i, name in enumerate(lts.state_names):
        lines.append(f'  {i} [label="{_dot_escape(name)}"];')
    for src, label, dst in lts.triples():
        lines.append(f'  {src} -> {dst} [label="{_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
