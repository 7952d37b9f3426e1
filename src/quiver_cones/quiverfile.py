"""Line-oriented text format for quivers and involutions, plus vector literals.

A quiver file holds one directive a line, in the forms that _USAGE lists.
'#' starts a comment, blank lines are ignored.  vmap/amap pairs may be listed
in either direction; fixed points may be listed as 'vmap x x' or omitted.
Vector literals are comma-separated 'vertex=value' assignments with omitted
vertices defaulting to 0; the zero vector may also be written '0'.
"""

from .errors import DuplicateIdError, QuiverFileSyntaxError
from .quiver import DimVector, Involution, Quiver, Weight

# each directive's usage: one field per <...>, and any number more after '...'
_USAGE = {usage.split()[0]: usage for usage in (
    "quiver <name>",
    "vertices <id>...",
    "arrow <id> <tail> <head>",
    "involution <name>",
    "vmap <x> <y>",
    "amap <x> <y>",
)}


def parse_quiver_file(text):
    """Parse a quiver file into (Quiver, list of validated Involutions)."""
    name = None
    vertices = []
    arrows = []
    inv_blocks = []  # (name, vmap pairs, amap pairs); the open block is the last
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw, *args = line.split()
        usage = _USAGE.get(kw)
        if usage is None:
            raise QuiverFileSyntaxError(line_no, f"unknown directive {kw!r}")
        if kw in ("vmap", "amap") and not inv_blocks:
            raise QuiverFileSyntaxError(line_no, f"{kw} outside an involution block")
        arity = usage.count("<")
        if len(args) < arity or (len(args) > arity and not usage.endswith("...")):
            raise QuiverFileSyntaxError(line_no, f"expected: {usage}")
        if kw == "quiver":
            if name is not None:
                raise QuiverFileSyntaxError(line_no, "duplicate quiver line")
            name = args[0]
        elif kw == "vertices":
            vertices.extend(args)
        elif kw == "arrow":
            arrows.append(tuple(args))
        elif kw == "involution":
            if any(block[0] == args[0] for block in inv_blocks):
                raise DuplicateIdError(f"line {line_no}: duplicate involution name {args[0]!r}")
            inv_blocks.append((args[0], [], []))
        else:
            inv_blocks[-1][1 if kw == "vmap" else 2].append(tuple(args))
    if name is None:
        raise QuiverFileSyntaxError(0, "missing quiver line")
    q = Quiver(name, vertices, arrows)
    return q, [Involution.from_pairs(q, *block) for block in inv_blocks]


def serialize_quiver(q, involutions=()):
    """Deterministic textual form, each involution bound to q; parse inverts it."""
    lines = [f"quiver {q.name}"]
    if q.vertices:  # the parser refuses a vertices line with no id
        lines.append("vertices " + " ".join(q.vertices))
    for a, t, h in q.arrows:
        lines.append(f"arrow {a} {t} {h}")
    for inv in involutions:
        inv._bound_to(q)
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


def _parse_assignments(text):
    entries = {}
    text = text.strip()
    if text in ("", "0"):  # format_vector writes the zero vector as 0
        return entries
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad assignment {item!r}; expected vertex=value")
        v, val = item.split("=", 1)
        v = v.strip()
        if v in entries:
            raise ValueError(f"vertex {v!r} assigned twice")
        entries[v] = int(val)
    return entries


def parse_dim_vector(q, text):
    return DimVector.from_dict(q, _parse_assignments(text))


def parse_weight(q, text):
    return Weight.from_dict(q, _parse_assignments(text))


def format_vector(vec):
    """Canonical literal: nonzero entries in vertex order."""
    items = [f"{v}={vec[v]}" for v in vec.quiver.vertices if vec[v]]
    return ",".join(items) if items else "0"
