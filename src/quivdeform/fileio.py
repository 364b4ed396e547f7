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

The tokens, exactly.  "Space" is a character that str.isspace accepts,
a "digit" one that str.isdecimal accepts (Unicode decimal digits, so
`٣` but not `²`), and a "word character" one that str.isalnum accepts,
or `_`.  Lines are split at str.splitlines.

- comment: everything from the first `#` of a line.  Its origin tag is
  read at the first `#` that spaces, `origin:`, spaces and a non-space
  character follow: the run of non-space characters there;
- arrow line: `arrow N : S -> T`, where N, S and T are runs of non-space
  characters and the spaces are optional.  The longest N comes first,
  then the longest S, so `a:b : 1 -> 2` declares `a:b`; N must then be
  an arrow name;
- arrow name: an ASCII letter or `_`, then ASCII letters, digits, `_`
  or `^`;
- param line: `param N = V`, N one or more word characters, V a run of
  non-space characters read as a scalar;
- cocycle line: `cocycle f(X, Y) = E`: X runs to the first comma, Y to
  the first `)` after it that spaces and `=` follow, E is the rest;
- act line: `act(L) = ROWS`, L running to the first `)` that spaces and
  `=` follow;
- scalar: an optional `-`, digits, and optionally `/` and digits;
- `e(v)`: the trivial path at v, one or more word characters;
- expression: a signed sum, spaces ignored, of terms whose `*`-separated
  factors are arrow names, param names, scalars or `e(v)`.
"""

from .errors import InputError
from .fields import Field
from .quiver import FreeElement, Quiver

_RATIONALS = Field.rationals()
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | frozenset("0123456789^")


def _is_word(text):
    # one or more word characters: `_` counts as a letter
    return text.replace("_", "a").isalnum()


def _is_scalar(token):
    num, slash, den = token.partition("/")
    if num[:1] == "-":
        num = num[1:]
    return num.isdecimal() and (not slash or den.isdecimal())


def _is_arrow_name(name):
    return name[:1] in _NAME_START and all(c in _NAME_CHARS for c in name[1:])


def _is_run(text):
    # one or more characters, none of them a space
    return text.split() == [text]


def _runs_before(text, sep):
    """The readings of text as R, spaces, sep, spaces, T with R a run of
    non-space characters: (R, T) pairs, the longest R first."""
    run = text.split(None, 1)[0] if text[:1] and not text[0].isspace() else ""
    for end in range(len(run), 0, -1):
        tail = text[end:].lstrip()
        if tail.startswith(sep):
            yield run[:end], tail[len(sep):].lstrip()


def _closed_by_equals(text):
    """(inside, value): text cut at its first `)` that spaces and `=`
    follow, and what follows the `=` and its spaces; or None."""
    end = text.find(")")
    while end >= 0:
        after = text[end + 1:].lstrip()
        if after.startswith("="):
            return text[:end], after[1:].lstrip()
        end = text.find(")", end + 1)
    return None


def _arrow_fields(rest):
    """(name, source, target) of an arrow line after `arrow`, or None."""
    for name, ends in _runs_before(rest, ":"):
        for source, target in _runs_before(ends, "->"):
            if _is_run(target):
                return name, source, target
    return None


def _param_fields(rest):
    """(name, value) of a param line after `param`, or None."""
    name, eq, value = rest.partition("=")
    name, value = name.rstrip(), value.lstrip()
    if eq and _is_word(name) and _is_run(value):
        return name, value
    return None


def _cocycle_fields(rest):
    """(left key, right key, value) of a cocycle line after `cocycle`, or None."""
    if not rest.startswith("f("):
        return None
    left, comma, tail = rest[2:].partition(",")
    found = _closed_by_equals(tail) if comma else None
    return None if found is None else (left,) + found


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
    body, hash_, comment = line.partition("#")
    origin = None
    while hash_:
        rest = comment.lstrip()
        if rest.startswith("origin:"):
            tag = rest[len("origin:"):].lstrip()
            if tag:
                origin = tag.split(None, 1)[0]
                break
        _, hash_, comment = comment.partition("#")
    return body.strip(), origin


def _split_signed_terms(text):
    """Split an expression into (sign, term) pairs at top-level + and -."""
    text = "".join(text.split())
    if not text:
        raise InputError("empty expression")
    terms = []
    sign = 1
    # each piece is a term or nothing, after at most one minus sign
    for piece in text.replace("-", "+-").split("+"):
        if piece[:1] == "-":
            sign, piece = -sign, piece[1:]
        if piece:
            terms.append((sign, piece))
            sign = 1
    if not piece:
        raise InputError("dangling sign in expression %r" % text)
    return terms


def parse_expression(text, quiver, field, params):
    """Parse a signed sum of scalar*path terms into a FreeElement."""
    zero, one = field.zero, field.one
    aindex, arrows, vindex = quiver.aindex, quiver.arrows, quiver.vindex
    terms = {}
    for sign, term in _split_signed_terms(text):
        coeff = one if sign > 0 else field.neg(one)
        path = None
        for factor in term.split("*"):
            # arrow and param names are never scalars (parse_algebra_text)
            a = aindex.get(factor)
            if a is not None:
                step = (arrows[a][1], a)
            elif factor in params:
                coeff = field.mul(coeff, params[factor])
                continue
            elif _is_scalar(factor):
                coeff = field.mul(coeff, field.parse(factor))
                continue
            elif not factor:
                raise InputError("empty factor in term %r" % term)
            elif factor[:2] == "e(" and factor[-1:] == ")" and _is_word(factor[2:-1]):
                if factor[2:-1] not in vindex:
                    raise InputError("unknown vertex in %r" % factor)
                step = (vindex[factor[2:-1]],)
            else:
                raise InputError("unknown name %r in term %r" % (factor, term))
            if path is None:
                path = step
            elif (arrows[path[-1]][2] if len(path) > 1 else path[0]) != step[0]:
                raise InputError("factors do not compose in term %r" % term)
            else:
                path += step[1:]
        if path is None:
            raise InputError("term %r has no path factor" % term)
        if coeff != zero:
            s = field.add(terms.get(path, zero), coeff)
            if s == zero:
                del terms[path]
            else:
                terms[path] = s
    return FreeElement(quiver, field, terms)


def parse_path(text, quiver):
    """Parse a pure path expression (arrows and e(v) only, no scalars)."""
    elem = parse_expression(text, quiver, _RATIONALS, {})
    if len(elem.terms) != 1:
        raise InputError("expected a single path, got %r" % text)
    path, coeff = next(iter(elem.terms.items()))
    if coeff != _RATIONALS.one:
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
        line, origin = _strip_comment(raw) if "#" in raw else (raw.strip(), None)
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):].strip()
        if head == "field":
            if field_line is not None:
                raise InputError("line %d: duplicate field line" % lineno)
            field_line = (lineno, rest)
        elif head == "vertex":
            vertex_ids.extend(rest.split())
        elif head == "arrow":
            fields = _arrow_fields(rest)
            if fields is None:
                raise InputError("line %d: malformed arrow line" % lineno)
            if not _is_arrow_name(fields[0]):
                raise InputError("line %d: bad arrow name %r" % (lineno, fields[0]))
            arrow_decls.append(fields)
        elif head == "param":
            fields = _param_fields(rest)
            if fields is None:
                raise InputError("line %d: malformed param line" % lineno)
            param_lines.append((lineno,) + fields)
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
        if name in quiver.aindex or name in quiver.vindex or _is_scalar(name):
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
    # key path text -> path, value text -> element: family files repeat
    # each many times; every pair gets an element of its own
    key_paths, values = {}, {}

    def key_path(text):
        if text not in key_paths:
            key_paths[text] = parse_path(text, quiver)
        return key_paths[text]

    for lineno, rest in cocycle_lines:
        fields = _cocycle_fields(rest)
        if fields is None:
            raise InputError("line %d: malformed cocycle line" % lineno)
        try:
            key = (key_path(fields[0]), key_path(fields[1]))
            if fields[2] not in values:
                values[fields[2]] = parse_expression(fields[2], quiver, field, params)
        except InputError as e:
            raise InputError("line %d: %s" % (lineno, e))
        if key in cocycle_pairs:
            raise InputError("line %d: duplicate cocycle pair" % lineno)
        cocycle_pairs[key] = FreeElement(quiver, field, values[fields[2]].terms)

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
            fields = _closed_by_equals(line[4:]) if line.startswith("act(") else None
            if fields is None:
                raise InputError("line %d: malformed act line" % lineno)
            label = "".join(fields[0].split())
            if dim is None:
                raise InputError("line %d: act before dim" % lineno)
            rows = []
            for row_text in fields[1].split(";"):
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
