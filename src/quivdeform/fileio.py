"""Line-oriented algebra and module files, plus DOT output.

Algebra files:

    field Q              # or: field F 7
    vertex 1 2
    arrow a1 : 1 -> 2
    arrow a2 : 2 -> 1
    param q = 1
    relation a1*a2
    cocycle f(a1, a2*a1) = a1

Paths multiply left to right (`a1*a2` traverses a1 first), `e(v)` is the
trivial path at v, and expressions are signed sums of terms whose
factors are scalars (`2`, `-1/3`), declared params, arrows, or `e(v)`.
Emitted presentations tag relations with their construction step via a
structured comment (`# origin: ...`) that the parser reads back, so a
parse/emit round trip preserves the whole Presentation.

Module files give the dimension and one action matrix per algebra basis
label (matrix rows separated by `;`, acting on coordinate columns):

    dim 2
    act(a) = 0 0 ; 1 0

The parser turns each matrix into a sparse map {column: {row: scalar}},
the form the module layer works in, and emit_module_text writes such
maps back as dense rows.
"""

import re

from .errors import InputError
from .fields import Field
from .quiver import FreeElement, Quiver

_SCALAR_RE = re.compile(r"^-?\d+(/\d+)?$")
_TRIVIAL_RE = re.compile(r"^e\((\w+)\)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_^]*$")


class AlgebraFile:
    """Parsed algebra file: field, quiver, relations, params, cocycle pairs."""

    def __init__(self, field, quiver, relations, params, cocycle_pairs, origins):
        self.field = field
        self.quiver = quiver
        self.relations = relations
        self.params = params
        self.cocycle_pairs = cocycle_pairs  # (path, path) -> FreeElement
        self.origins = origins  # per-relation tag or None

    def __eq__(self, other):
        if not isinstance(other, AlgebraFile):
            return NotImplemented
        return (self.field == other.field and self.quiver == other.quiver
                and [r.terms for r in self.relations] == [r.terms for r in other.relations]
                and self.params == other.params
                and {k: v.terms for k, v in self.cocycle_pairs.items()}
                == {k: v.terms for k, v in other.cocycle_pairs.items()}
                and self.origins == other.origins)


def _strip_comment(line):
    origin = None
    m = re.search(r"#\s*origin:\s*(\S+)", line)
    if m:
        origin = m.group(1)
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip(), origin


def _split_signed_terms(text):
    """Split an expression into (sign, term) pairs at top-level + and -."""
    text = "".join(text.split())
    if not text:
        raise InputError("empty expression")
    terms = []
    sign = 1
    cur = []
    for ch in text:
        if ch in "+-":
            if cur:
                terms.append((sign, "".join(cur)))
                cur = []
                sign = 1
            sign *= -1 if ch == "-" else 1
        else:
            cur.append(ch)
    if not cur:
        raise InputError("dangling sign in expression %r" % text)
    terms.append((sign, "".join(cur)))
    return terms


def parse_expression(text, quiver, field, params):
    """Parse a signed sum of scalar*path terms into a FreeElement."""
    out = FreeElement.zero(quiver, field)
    for sign, term in _split_signed_terms(text):
        coeff = field.one if sign > 0 else field.neg(field.one)
        path = None
        for factor in term.split("*"):
            if not factor:
                raise InputError("empty factor in term %r" % term)
            if _SCALAR_RE.match(factor):
                coeff = field.mul(coeff, field.parse(factor))
                continue
            if factor in params:
                coeff = field.mul(coeff, params[factor])
                continue
            m = _TRIVIAL_RE.match(factor)
            if m:
                v = m.group(1)
                if v not in quiver.vindex:
                    raise InputError("unknown vertex in %r" % factor)
                step = quiver.trivial_path(v)
            elif factor in quiver.aindex:
                step = quiver.arrow_path(factor)
            else:
                raise InputError("unknown name %r in term %r" % (factor, term))
            if path is None:
                path = step
            else:
                path = quiver.compose(path, step)
                if path is None:
                    raise InputError("factors do not compose in term %r" % term)
        if path is None:
            raise InputError("term %r has no path factor" % term)
        out = out + FreeElement.from_path(quiver, field, path, coeff)
    return out


def parse_path(text, quiver):
    """Parse a pure path expression (arrows and e(v) only, no scalars)."""
    field = Field.rationals()
    elem = parse_expression(text, quiver, field, {})
    if len(elem.terms) != 1:
        raise InputError("expected a single path, got %r" % text)
    path, coeff = next(iter(elem.terms.items()))
    if coeff != field.one:
        raise InputError("path expression %r carries a coefficient" % text)
    return path


def parse_algebra_text(text, field_override=None):
    field_line = None
    vertex_ids = []
    arrow_decls = []
    param_lines = []
    relation_lines = []
    cocycle_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, origin = _strip_comment(raw)
        if not line:
            continue
        head = line.split()[0]
        rest = line[len(head):].strip()
        if head == "field":
            if field_line is not None:
                raise InputError("line %d: duplicate field line" % lineno)
            field_line = (lineno, rest)
        elif head == "vertex":
            vertex_ids.extend(rest.split())
        elif head == "arrow":
            m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", rest)
            if not m:
                raise InputError("line %d: malformed arrow line" % lineno)
            name = m.group(1)
            if not _NAME_RE.match(name):
                raise InputError("line %d: bad arrow name %r" % (lineno, name))
            arrow_decls.append((name, m.group(2), m.group(3)))
        elif head == "param":
            m = re.match(r"^(\w+)\s*=\s*(\S+)$", rest)
            if not m:
                raise InputError("line %d: malformed param line" % lineno)
            param_lines.append((lineno, m.group(1), m.group(2)))
        elif head == "relation":
            relation_lines.append((lineno, rest, origin))
        elif head == "cocycle":
            cocycle_lines.append((lineno, rest))
        else:
            raise InputError("line %d: unknown directive %r" % (lineno, head))

    if field_override is not None:
        field = field_override
    else:
        if field_line is None:
            raise InputError("missing field line")
        toks = field_line[1].split()
        if toks == ["Q"]:
            field = Field.rationals()
        elif len(toks) == 2 and toks[0] == "F":
            try:
                p = int(toks[1])
            except ValueError:
                raise InputError("line %d: malformed field line" % field_line[0])
            field = Field.prime(p)
        else:
            raise InputError("line %d: malformed field line" % field_line[0])

    quiver = Quiver(vertex_ids, arrow_decls)

    params = {}
    for lineno, name, value in param_lines:
        if name in quiver.aindex or name in quiver.vindex or _SCALAR_RE.match(name):
            raise InputError("line %d: param name %r shadows another token" % (lineno, name))
        if name in params:
            raise InputError("line %d: duplicate param %r" % (lineno, name))
        params[name] = field.parse(value)

    relations = []
    origins = []
    for lineno, expr, origin in relation_lines:
        try:
            relations.append(parse_expression(expr, quiver, field, params))
        except InputError as e:
            raise InputError("line %d: %s" % (lineno, e))
        origins.append(origin)

    cocycle_pairs = {}
    key_paths = {}  # key path text -> path; family files repeat each many times

    def key_path(text):
        if text not in key_paths:
            key_paths[text] = parse_path(text, quiver)
        return key_paths[text]

    for lineno, rest in cocycle_lines:
        m = re.match(r"^f\((.*?),(.*?)\)\s*=\s*(.*)$", rest)
        if not m:
            raise InputError("line %d: malformed cocycle line" % lineno)
        try:
            key = (key_path(m.group(1)), key_path(m.group(2)))
            value = parse_expression(m.group(3), quiver, field, params)
        except InputError as e:
            raise InputError("line %d: %s" % (lineno, e))
        if key in cocycle_pairs:
            raise InputError("line %d: duplicate cocycle pair" % lineno)
        cocycle_pairs[key] = value

    return AlgebraFile(field, quiver, relations, params, cocycle_pairs, origins)


def parse_algebra_file(path, field_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    return parse_algebra_text(text, field_override)


def scalar_str(c, field):
    return field.to_str(c)


def signed_sum_str(terms, field):
    """The sum of the ordered (label, coefficient) pairs terms as text:
    a coefficient 1 is left out, and over Q a negative one becomes a
    minus sign.  No term gives the empty string."""
    bits = []
    for body, c in terms:
        negative = field.char == 0 and c < 0
        mag = -c if negative else c
        if mag != field.one:
            body = "%s*%s" % (scalar_str(mag, field), body)
        if not bits:
            bits.append("-" + body if negative else body)
        else:
            bits.append(("- " if negative else "+ ") + body)
    return " ".join(bits)


def element_str(elem, quiver, field):
    """Expression text for a FreeElement; parses back to the same element."""
    if elem.is_zero():
        raise InputError("cannot format the zero element as an expression")
    paths = sorted(elem.terms, key=lambda t: (len(t) - 1, t[1:], t[0]))
    return signed_sum_str([(quiver.path_str(p), elem.terms[p]) for p in paths], field)


def field_str(field):
    return "field Q" if field.char == 0 else "field F %d" % field.char


def emit_algebra_text(field, quiver, relations, params=None, cocycle_pairs=None,
                      origins=None, header=None):
    lines = []
    if header:
        for h in header.splitlines():
            lines.append("# " + h if h else "#")
    lines.append(field_str(field))
    lines.append("vertex " + " ".join(quiver.vertices))
    for name, s, t in quiver.arrows:
        lines.append("arrow %s : %s -> %s" % (name, quiver.vertices[s], quiver.vertices[t]))
    for name in sorted(params or {}):
        lines.append("param %s = %s" % (name, scalar_str(params[name], field)))
    for i, r in enumerate(relations):
        tag = origins[i] if origins else None
        suffix = "  # origin: %s" % tag if tag else ""
        lines.append("relation %s%s" % (element_str(r, quiver, field), suffix))
    for key in sorted((cocycle_pairs or {}),
                      key=lambda k: (len(k[0]), k[0][1:], k[0][0], len(k[1]), k[1][1:], k[1][0])):
        value = cocycle_pairs[key]
        if value.is_zero():
            continue
        lines.append("cocycle f(%s, %s) = %s" % (
            quiver.path_str(key[0]), quiver.path_str(key[1]),
            element_str(value, quiver, field)))
    return "\n".join(lines) + "\n"


def emit_dot(quiver, dashed_arrows=(), graph_name="G"):
    """DOT digraph; node/edge order follows declaration order."""
    dashed = set(dashed_arrows)
    lines = ["digraph %s {" % graph_name]
    for v in quiver.vertices:
        lines.append('  "%s";' % v)
    for name, s, t in quiver.arrows:
        attrs = 'label="%s"' % name
        if name in dashed:
            attrs += ", style=dashed"
        lines.append('  "%s" -> "%s" [%s];' % (quiver.vertices[s], quiver.vertices[t], attrs))
    lines.append("}")
    return "\n".join(lines) + "\n"


class ModuleFile:
    def __init__(self, dim, actions):
        self.dim = dim
        self.actions = actions  # label text -> sparse map {column: {row: scalar}}


def parse_module_text(text, field):
    dim = None
    actions = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _ = _strip_comment(raw)
        if not line:
            continue
        head = line.split()[0]
        rest = line[len(head):].strip()
        if head == "dim":
            if dim is not None:
                raise InputError("line %d: duplicate dim line" % lineno)
            try:
                dim = int(rest)
            except ValueError:
                raise InputError("line %d: malformed dim line" % lineno)
            if dim < 0:
                raise InputError("line %d: negative dimension" % lineno)
        elif head.startswith("act(") or head == "act":
            m = re.match(r"^act\((.*?)\)\s*=\s*(.*)$", line)
            if not m:
                raise InputError("line %d: malformed act line" % lineno)
            label = "".join(m.group(1).split())
            if dim is None:
                raise InputError("line %d: act before dim" % lineno)
            rows = []
            for row_text in m.group(2).split(";"):
                entries = row_text.split()
                if len(entries) != dim:
                    raise InputError("line %d: row of width %d, expected %d"
                                     % (lineno, len(entries), dim))
                rows.append([field.parse(tok) for tok in entries])
            if len(rows) != dim:
                raise InputError("line %d: %d rows, expected %d" % (lineno, len(rows), dim))
            if label in actions:
                raise InputError("line %d: duplicate act(%s)" % (lineno, label))
            amap = {}
            for r, row in enumerate(rows):
                for c, x in enumerate(row):
                    if x != field.zero:
                        amap.setdefault(c, {})[r] = x
            actions[label] = amap
        else:
            raise InputError("line %d: unknown directive %r" % (lineno, head))
    if dim is None:
        raise InputError("missing dim line")
    return ModuleFile(dim, actions)


def parse_module_file(path, field):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    return parse_module_text(text, field)


def emit_module_text(dim, actions, field):
    lines = ["dim %d" % dim]
    for label in sorted(actions):
        amap = actions[label]
        rows = [[amap.get(c, {}).get(r, field.zero) for c in range(dim)] for r in range(dim)]
        body = " ; ".join(" ".join(scalar_str(c, field) for c in row) for row in rows)
        lines.append("act(%s) = %s" % (label, body))
    return "\n".join(lines) + "\n"
