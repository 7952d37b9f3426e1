"""Line-oriented text format for quivers and involutions, plus vector literals.

Format::

    quiver <name>
    vertices <id> <id> ...
    arrow <id> <tail> <head>
    involution <name>
    vmap <x> <y>
    amap <a> <b>

'#' starts a comment, blank lines are ignored.  vmap/amap pairs may be listed
in either direction; fixed points may be listed as 'vmap x x' or omitted.
Vector literals are comma-separated 'vertex=value' assignments with omitted
vertices defaulting to 0; the zero vector may also be written '0'.
"""

from .errors import DuplicateIdError, QuiverFileSyntaxError
from .quiver import DimVector, Involution, Quiver, Weight, validate_involution


def parse_quiver_file(text):
    """Parse a quiver file into (Quiver, list of validated Involutions)."""
    name = None
    vertices = []
    arrows = []
    inv_blocks = []  # (name, vmap pairs, amap pairs)
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw, args = fields[0], fields[1:]
        if kw == "quiver":
            if len(args) != 1:
                raise QuiverFileSyntaxError(line_no, "expected: quiver <name>")
            if name is not None:
                raise QuiverFileSyntaxError(line_no, "duplicate quiver line")
            name = args[0]
        elif kw == "vertices":
            if not args:
                raise QuiverFileSyntaxError(line_no, "expected: vertices <id>...")
            vertices.extend(args)
        elif kw == "arrow":
            if len(args) != 3:
                raise QuiverFileSyntaxError(line_no, "expected: arrow <id> <tail> <head>")
            arrows.append(tuple(args))
        elif kw == "involution":
            if len(args) != 1:
                raise QuiverFileSyntaxError(line_no, "expected: involution <name>")
            if any(block[0] == args[0] for block in inv_blocks):
                raise DuplicateIdError(f"line {line_no}: duplicate involution name {args[0]!r}")
            current = (args[0], [], [])
            inv_blocks.append(current)
        elif kw in ("vmap", "amap"):
            if current is None:
                raise QuiverFileSyntaxError(line_no, f"{kw} outside an involution block")
            if len(args) != 2:
                raise QuiverFileSyntaxError(line_no, f"expected: {kw} <x> <y>")
            current[1 if kw == "vmap" else 2].append(tuple(args))
        else:
            raise QuiverFileSyntaxError(line_no, f"unknown directive {kw!r}")
    if name is None:
        raise QuiverFileSyntaxError(0, "missing quiver line")
    q = Quiver(name, vertices, arrows)
    involutions = [Involution.from_pairs(*block) for block in inv_blocks]
    for inv in involutions:
        validate_involution(q, inv)
    return q, involutions


def serialize_quiver(q, involutions=()):
    """Deterministic textual form; parse(serialize(...)) is the identity."""
    lines = [f"quiver {q.name}", "vertices " + " ".join(q.vertices)]
    for a, t, h in q.arrows:
        lines.append(f"arrow {a} {t} {h}")
    for inv in involutions:
        lines.append(f"involution {inv.name}")
        for kind, ids, image in (("vmap", q.vertices, inv.vertex),
                                 ("amap", q.arrow_ids, inv.arrow)):
            done = set()
            for x in ids:
                y = image(x)
                if y != x and x not in done:
                    lines.append(f"{kind} {x} {y}")
                    done.update((x, y))
    return "\n".join(lines) + "\n"


def _parse_assignments(q, text):
    entries = {}
    text = text.strip()
    if text in ("", "0"):  # format_vector writes the zero vector as 0
        return entries
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad assignment {item!r}; expected vertex=value")
        v, val = item.split("=", 1)
        v = v.strip()
        if v not in set(q.vertices):
            raise ValueError(f"unknown vertex {v!r}")
        if v in entries:
            raise ValueError(f"vertex {v!r} assigned twice")
        entries[v] = int(val)
    return entries


def parse_dim_vector(q, text):
    return DimVector.from_dict(q, _parse_assignments(q, text))


def parse_weight(q, text):
    return Weight.from_dict(q, _parse_assignments(q, text))


def format_vector(vec):
    """Canonical literal: nonzero entries in vertex order."""
    items = [f"{v}={vec[v]}" for v in vec.quiver.vertices if vec[v]]
    return ",".join(items) if items else "0"
