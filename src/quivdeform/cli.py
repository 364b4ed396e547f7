"""Command-line driver.

Every subcommand reads an algebra file, runs exact computations, and
prints either plain values (basis, hh, deform, transfer tables) or a
report of named checks.  The process exits 0 only when all checks
pass; bad input exits 2 and typed computation errors exit 1.

The command line is read from the COMMANDS table the way argparse read
it, without argparse: importing it and building its parsers took longer
than many commands take to compute.  For the same reason each handler
imports the layers past quiver that it uses (hochschild, deform, morita,
modcat) when it runs, so a command loads only what it computes with.
"""

import os
import sys
from types import SimpleNamespace

from .errors import ComputationError, InputError, NotACocycle
from .fields import Field
from .fileio import (element_str, emit_algebra_text, emit_dot, parse_algebra_file,
                     parse_module_file, signed_sum_str)
from .quiver import FreeElement, compute_basis


def _parse_field_flag(text):
    if text is None:
        return None
    if text == "Q":
        return Field.rationals()
    if text.startswith("F") and text[1:].isdigit():
        return Field.prime(int(text[1:]))
    raise InputError("--field expects Q or F<p>, got %r" % text)


def _load_algebra(args):
    af = parse_algebra_file(args.file, _parse_field_flag(args.field))
    basis = compute_basis(af.quiver, af.relations, af.field, args.max_degree)
    return af, basis


def _emit_report(checks, mode):
    if mode == "json-lines":
        # only this mode needs json, whose import costs every command ~3 ms
        import json
    for name, ok, detail in checks:
        if mode == "json-lines":
            print(json.dumps({"name": name, "ok": bool(ok), "detail": detail}))
        else:
            print("%s: %s  %s" % (name, "PASS" if ok else "FAIL", detail))
    ok_all = all(ok for _, ok, _ in checks)
    if mode != "json-lines":
        print("overall: %s" % ("PASS" if ok_all else "FAIL"))
    return 0 if ok_all else 1


def _vec_str(vec, labels, field):
    """Coordinate dict as a signed sum of labelled basis terms."""
    if not vec:
        return "0"
    return signed_sum_str([(labels[i], vec[i]) for i in sorted(vec)], field)


def _cocycle_detail(witness, labels):
    """d^2 f = 0, or d^2 f != 0 at the basis tuple witness, by its labels."""
    if witness is None:
        return "d^2 f = 0"
    return "d^2 f != 0 at (%s)" % ", ".join(labels[i] for i in witness)


def cmd_basis(args):
    af, basis = _load_algebra(args)
    print("dim A = %d" % basis.dim)
    for i in range(basis.dim):
        print(basis.labels[i])
    return 0


def cmd_hh(args):
    from .hochschild import hh_summary
    af, basis = _load_algebra(args)
    z2, b2, hh2 = hh_summary(basis)
    print("dim Z^2 = %d" % z2)
    print("dim B^2 = %d" % b2)
    print("dim HH^2 = %d" % hh2)
    return 0


def cmd_check_cocycle(args):
    from .hochschild import cochain_from_pairs, cocycle_witness
    af, basis = _load_algebra(args)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    bad = cocycle_witness(f, basis)
    detail = "%d table entries, %s" % (len(f.table), _cocycle_detail(bad, basis.labels))
    return _emit_report([("cocycle", bad is None, detail)], args.report)


def cmd_deform(args):
    from .deform import build_presentation, interreduce_presentation
    from .hochschild import cochain_from_pairs
    af, basis = _load_algebra(args)
    pres = build_presentation(basis, cochain_from_pairs(basis, af.cocycle_pairs))
    if args.interreduce:
        pres = interreduce_presentation(pres, basis.field, args.max_degree)
    header = "presentation of the deformed algebra (dim %d)" % (2 * basis.dim)
    text = emit_algebra_text(basis.field, pres.quiver, pres.relations,
                             origins=pres.origins, header=header)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.dot:
        dot = emit_dot(pres.quiver, dashed_arrows=pres.dashed, graph_name="Qf")
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    return 0


def cmd_verify_deform(args):
    from .deform import DeformedAlgebra, build_presentation, hat_f, verify_presentation
    from .hochschild import cochain_from_pairs
    af, basis = _load_algebra(args)
    fld = basis.field
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    checks = []

    # the presentation is built first, since build_presentation proves
    # the cocycle condition and the image condition on its way
    try:
        pres = build_presentation(basis, f)
        witness = None
    except NotACocycle as exc:
        witness = exc.witness
    ok_cocycle = witness is None
    checks.append(("cocycle", ok_cocycle, _cocycle_detail(witness, basis.labels)))
    # the associator of A_f is (0, -d f) on the triples of the (x, 0) and 0
    # on the others, so this is the cocycle condition read on A_f, failing
    # at the same triple, whose (x, 0) carry the labels of A
    if ok_cocycle:
        detail = "all %d^3 basis triples" % (2 * basis.dim)
    else:
        detail = ("(xy)z != x(yz) at (x, y, z) = (%s, %s, %s)"
                  % tuple(basis.labels[i] for i in witness))
    checks.append(("associativity", ok_cocycle, detail))
    if not ok_cocycle:
        checks.append(("presentation", False, "skipped: not a cocycle"))
        return _emit_report(checks, args.report)

    # products of hatted arrows track f-hat, on basis paths and relations
    deformed = DeformedAlgebra(basis, f)
    evaluate = deformed.evaluation(basis.quiver)

    def lands_on(w, a):
        # does w evaluate to (a, f^(w)), whose t-part sits past dim A?
        t_part = hat_f(w, basis, f)
        return evaluate(w) == {**a, **{basis.dim + k: c for k, c in t_part.items()}}

    bad = []
    for i, p in enumerate(basis.paths):
        w = FreeElement.from_path(basis.quiver, fld, p)
        if not lands_on(w, basis.normal_form(w)):
            bad.append(basis.labels[i])
    detail = ("%d of %d basis paths multiply to (w, f^(w))"
              % (basis.dim - len(bad), basis.dim))
    if bad:
        detail += "; the first that does not is %s" % bad[0]
    checks.append(("path-products", not bad, detail))

    bad = [rel for rel in basis.relations if not lands_on(rel, {})]
    detail = ("%d of %d relations land on (0, f^(rho))"
              % (len(basis.relations) - len(bad), len(basis.relations)))
    if bad:
        detail += "; the first that does not is %s" % element_str(bad[0], basis.quiver, fld)
    checks.append(("relation-identity", not bad, detail))

    checks.append(("image-condition", True,
                   "holds for the given representative" if pres.cocycle is f
                   else "restored by a cohomologous representative"))
    if pres.cocycle is not f:
        deformed = DeformedAlgebra(basis, pres.cocycle)
    checks.extend(verify_presentation(deformed, pres, args.max_degree))
    return _emit_report(checks, args.report)


def cmd_equiv(args):
    from .deform import deformation_equivalence
    from .hochschild import cochain_from_pairs, cocycle_witness
    af, basis = _load_algebra(args)
    fld = basis.field
    af2 = parse_algebra_file(args.other, _parse_field_flag(args.field))
    checks = []

    same = af.field == af2.field and af.quiver == af2.quiver
    detail = "field, quiver and relation ideal agree"
    if not same:
        detail = "field or quiver differ"
    else:
        basis2 = compute_basis(af2.quiver, af2.relations, af2.field,
                               args.max_degree)

        def moved(relations, q):
            return [FreeElement(q, fld, dict(r.terms)) for r in relations]
        if not (basis2.contains_ideal_of(moved(af.relations, af2.quiver))
                and basis.contains_ideal_of(moved(af2.relations, af.quiver))):
            same, detail = False, "relation ideals differ"
    checks.append(("same-algebra", same, detail))

    f = cochain_from_pairs(basis, af.cocycle_pairs)
    witness = cocycle_witness(f, basis)
    checks.append(("cocycle-1", witness is None, _cocycle_detail(witness, basis.labels)))
    if same:
        g = cochain_from_pairs(basis, {
            key: FreeElement(af.quiver, fld, dict(value.terms))
            for key, value in af2.cocycle_pairs.items()})
        witness = cocycle_witness(g, basis)
        checks.append(("cocycle-2", witness is None, _cocycle_detail(witness, basis.labels)))
    else:
        checks.append(("cocycle-2", False, "skipped: different algebras"))

    # same-algebra, cocycle-1 and cocycle-2
    if all(ok for _, ok, _ in checks):
        phi = deformation_equivalence(f, g, basis)
        checks.append(("cohomologous", phi is not None,
                       "the difference is a coboundary" if phi is not None
                       else "the cohomology classes differ"))
        checks.append(("multiplicative", phi is not None,
                       "verified on all basis pairs (sign +1)"
                       if phi is not None else "skipped: no equivalence"))
    else:
        checks.append(("cohomologous", False, "skipped"))
        checks.append(("multiplicative", False, "skipped"))
    return _emit_report(checks, args.report)


def _context_of(args, af, basis):
    from .morita import idempotent_context, matrix_context
    if args.matrix is not None:
        return matrix_context(basis, args.matrix)
    names = [v.strip() for v in args.idempotent.split(",") if v.strip()]
    if not names:
        raise InputError("--idempotent expects a comma-separated vertex list")
    evec = {}
    for name in names:
        if name not in af.quiver.vindex:
            raise InputError("unknown vertex %r" % name)
        idx = basis.index[af.quiver.trivial_path(name)]
        if idx in evec:
            raise InputError("vertex %r listed twice" % name)
        evec[idx] = basis.field.one
    return idempotent_context(basis, evec)


def _cochain_check(name, lhs, rhs, labels, identity):
    """The check that two cochains agree: on failure the detail names the
    first basis tuple, by its labels, where they differ."""
    if lhs == rhs:
        return (name, True, identity)
    key = min(k for k in set(lhs.table) | set(rhs.table) if lhs.value(k) != rhs.value(k))
    return (name, False, "%s at (%s)" % (identity.replace(" = ", " != ", 1),
                                         ", ".join(labels[i] for i in key)))


# the lines of the transfer report: each check's name and its identity
TRANSFER_IDENTITIES = (("cocycle", "d^2 g = 0 on B"),
                       ("chain-map-phi", "d phi^2 f = phi^3 d f"),
                       ("chain-map-psi", "d psi^2 g = psi^3 d g"),
                       ("homotopy", "h^3 d f + d h^2 f = f - psi^2 phi^2 f"))


def cmd_transfer(args):
    from .hochschild import FullCochain, cochain_from_pairs, full_differential
    from .morita import homotopy_h, transfer_identities_hold, transfer_phi, transfer_psi
    af, basis = _load_algebra(args)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    ctx = _context_of(args, af, basis)
    g = transfer_phi(ctx, f)

    labels = ctx.b.labels
    if args.report == "json-lines":
        import json
        for key in sorted(g.table):
            print(json.dumps({"g": [labels[i] for i in key],
                              "value": _vec_str(g.table[key], labels, ctx.field)}))
    else:
        if g.is_zero():
            print("g = 0")
        for key in sorted(g.table):
            print("g(%s, %s) = %s" % (labels[key[0]], labels[key[1]],
                                      _vec_str(g.table[key], labels, ctx.field)))

    checks = [(name, True, identity) for name, identity in TRANSFER_IDENTITIES]
    if not transfer_identities_hold(ctx, f, g):
        # a failure, or f not a cocycle: the full differentials name each witness
        dg = full_differential(g, ctx.b)
        df = full_differential(f, ctx.a)
        back = transfer_psi(ctx, g)
        sides = [(dg, FullCochain(ctx.b.dim, 3, ctx.field), labels),
                 (dg, transfer_phi(ctx, df), labels),
                 (full_differential(back, ctx.a), transfer_psi(ctx, dg), ctx.a.labels),
                 (homotopy_h(ctx, df) + full_differential(homotopy_h(ctx, f), ctx.a),
                  f - back, ctx.a.labels)]
        checks = [_cochain_check(name, lhs, rhs, names, identity)
                  for (name, identity), (lhs, rhs, names) in zip(TRANSFER_IDENTITIES, sides)]
    return _emit_report(checks, args.report)


def cmd_verify_morita(args):
    from .hochschild import cochain_from_pairs
    from .morita import verify_morita_deformed
    af, basis = _load_algebra(args)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    ctx = _context_of(args, af, basis)
    return _emit_report(verify_morita_deformed(ctx, f), args.report)


def cmd_module_roundtrip(args):
    from .deform import DeformedAlgebra
    from .hochschild import cochain_from_pairs, is_cocycle
    from .linalg import _columns, map_compose
    from .modcat import functor_F, module_from_file, reconstruct, roundtrip_triple
    af, basis = _load_algebra(args)
    fld = basis.field
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    if not is_cocycle(f, basis):
        raise InputError("not a 2-cocycle; the deformed product would "
                         "not be associative")
    deformed = DeformedAlgebra(basis, f)
    mf = parse_module_file(args.module, fld)
    mod = module_from_file(mf, deformed)
    checks = [("module", True,
               "dim %d over a deformed algebra of dim %d" % (mod.dim, deformed.dim))]

    try:
        rec = reconstruct(mod)
    except InputError as exc:
        checks.append(("uple-carved", False, str(exc)))
        return _emit_report(checks, args.report)
    uple = rec.uple
    checks.append(("uple-carved", True,
                   "M0 dim %d, M1 dim %d" % (uple.m0.dim, uple.m1.dim)))

    rebuilt = functor_F(uple)
    s = _columns(rec.complement + rec.kernel)
    bad = next((i for i in range(deformed.dim)
                if map_compose(rec.inverse, map_compose(mod.actions[i], s, fld), fld)
                != rebuilt.actions[i]), None)
    checks.append(("functor-rebuild", bad is None,
                   "the basis change intertwines all %d actions" % deformed.dim
                   if bad is None
                   else "actions disagree after the basis change at %s" % deformed.labels[bad]))

    try:
        # roundtrip_triple raises unless the triple is an isomorphism
        roundtrip_triple(uple, rebuilt)
        checks.append(("roundtrip-triple", True, "comparison triple is an isomorphism"))
    except InputError as exc:
        checks.append(("roundtrip-triple", False, str(exc)))
    return _emit_report(checks, args.report)


# A long option maps to (metavar, default, convert, help).  A flag has no
# metavar and turns its default False to True; convert is int, a tuple of
# the accepted values, or None for any string.
_COMMON = {
    "--field": ("K", None, None, "override the field declared in the file (Q or F<p>)"),
    "--max-degree": ("N", 30, int, "path length cap for basis computations (default 30)"),
    "--report": ("{text,json-lines}", "text", ("text", "json-lines"),
                 "format of the check lines (default text)"),
}
_CONTEXT = {
    **_COMMON,
    "--matrix": ("N", None, int, "matrix amplification M_N(A)"),
    "--idempotent": ("V1,V2,...", None, None,
                     "corner context at the sum of the named vertex idempotents"),
}
_SHORT = {"-h": "--help", "-o": "--output"}

# command -> (positionals, long options, handler, help)
COMMANDS = {
    "basis": (("file",), _COMMON, cmd_basis, "print the monomial basis of kQ/I"),
    "hh": (("file",), _COMMON, cmd_hh,
           "dimensions of degree-2 cocycles, coboundaries and HH^2"),
    "check-cocycle": (("file",), _COMMON, cmd_check_cocycle,
                      "check d^2 f = 0 for the cocycle lines of the file"),
    "deform": (("file",), {
        **_COMMON,
        "--output": ("OUT", None, None, "write the presentation here instead of stdout"),
        "--dot": ("OUT", None, None, "also write the deformed quiver as a DOT digraph"),
        "--interreduce": (None, False, None,
                          "emit the completed rewrite rules instead of the raw generators"),
    }, cmd_deform, "emit a quiver presentation of the deformed algebra"),
    "verify-deform": (("file",), _COMMON, cmd_verify_deform,
                      "verify the deformed algebra and its presentation"),
    "equiv": (("file", "other"), _COMMON, cmd_equiv,
              "decide whether two cocycles give equivalent deformations"),
    "transfer": (("file",), _CONTEXT, cmd_transfer,
                 "transfer the cocycle across a Morita context"),
    "verify-morita": (("file",), _CONTEXT, cmd_verify_morita,
                      "verify the deformed Morita equivalence"),
    "module-roundtrip": (("file", "module"), _COMMON, cmd_module_roundtrip,
                         "carve a module over the deformed algebra into an uple "
                         "and rebuild it"),
}


def _usage(command):
    if command is None:
        return "usage: quivdeform [-h] COMMAND [options] ..."
    positionals, options = COMMANDS[command][:2]
    words = [p.upper() for p in positionals]
    if "--matrix" in options:
        words.append("(--matrix N | --idempotent V1,V2,...)")
    return "usage: quivdeform %s [options] %s" % (command, " ".join(words))


def _help(command):
    if command is None:
        lines = ["Exact deformations of bound quiver algebras.", "", "commands:"]
        lines += ["  %-18s%s" % (name, spec[3]) for name, spec in COMMANDS.items()]
        lines += ["", "`quivdeform COMMAND -h` lists the options of a command."]
    else:
        shorts = {name: short + ", " for short, name in _SHORT.items()}
        options = {**COMMANDS[command][1], "--help": (None, None, None, "show this help and exit")}
        lines = [COMMANDS[command][3], "", "options:"]
        for name, (metavar, _, _, text) in options.items():
            spelling = shorts.get(name, "") + name + (" " + metavar if metavar else "")
            lines.append("  %-28s%s" % (spelling, text))
    return "\n".join([_usage(command), ""] + lines)


def _fail(command, message):
    sys.stderr.write("%s\nquivdeform: error: %s\n" % (_usage(command), message))
    raise SystemExit(2)


def _option_of(token, names, command):
    """How argparse reads token, given the option spellings names: None
    for a positional, else (name, value).  name is the long option the
    token names, or None when it names none; value is what "=" or a
    short option attaches, or None."""
    if token[:1] != "-" or token == "-":
        return None
    if token[:2] == "--":
        head, eq, value = token.partition("=")
        found = ([head] if head in names
                 else [n for n in names if len(head) > 2 and n.startswith(head)])
    else:
        head, value = token[:2], token[2:]
        eq = value[:1] == "="
        found = [head] if head in names else []
        value = value[1:] if eq else value
    if len(found) > 1:
        _fail(command, "ambiguous option: %s could match %s" % (head, ", ".join(found)))
    if found:
        return _SHORT.get(found[0], found[0]), value if eq or value else None
    # argparse takes a negative number, -D or -[D].D for digit runs D, or a
    # word with a space, as a value
    whole, dot, frac = token[1:].partition(".")
    if dot and frac.isdecimal() and (not whole or whole.isdecimal()) \
            or not dot and whole.isdecimal() or " " in token:
        return None
    return None, None


def parse_args(argv):
    """The command line argv as a namespace: the command, each positional
    and each long option by its name, dashes made underscores, as argparse
    gave them.  Prints the help and raises SystemExit(0) at -h or --help;
    prints a usage error and raises SystemExit(2) on a malformed line."""
    if not argv:
        _fail(None, "a command is required")
    command = argv[0]
    if command not in COMMANDS:
        if _option_of(command, ("--help", "-h"), None) == ("--help", None):
            print(_help(None))
            raise SystemExit(0)
        _fail(None, "invalid command %r (choose from %s)" % (command, ", ".join(COMMANDS)))
    positionals, options = COMMANDS[command][:2]
    names = [*options, "--help"]
    names += [short for short, name in _SHORT.items() if name in names]
    values = {name[2:].replace("-", "_"): spec[1] for name, spec in options.items()}
    given, rest = [], iter(argv[1:])
    for token in rest:
        if token == "--":
            given.extend(rest)
            break
        found = _option_of(token, names, command)
        if found is None:
            given.append(token)
            continue
        name, value = found
        if name is None:
            _fail(command, "unrecognized option %s" % token)
        if name == "--help" or options[name][0] is None:
            if value is not None:
                _fail(command, "%s takes no value" % name)
            if name == "--help":
                print(_help(command))
                raise SystemExit(0)
            value = True
        elif value is None:
            value = next(rest, None)
            if value is None or _option_of(value, names, command):
                _fail(command, "%s expects a value" % name)
        convert = options[name][2]
        if convert is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, "%s expects an integer, got %r" % (name, value))
        elif convert is not None and value not in convert:
            _fail(command, "%s expects one of %s, got %r" % (name, ", ".join(convert), value))
        values[name[2:].replace("-", "_")] = value
    if len(given) < len(positionals):
        _fail(command, "missing %s" % " ".join(p.upper() for p in positionals[len(given):]))
    if len(given) > len(positionals):
        _fail(command, "unexpected argument %s" % " ".join(given[len(positionals):]))
    if "--matrix" in options and (values["matrix"] is None) == (values["idempotent"] is None):
        _fail(command, "exactly one of --matrix and --idempotent is required")
    return SimpleNamespace(command=command, **dict(zip(positionals, given)), **values)


def run(argv=None):
    """Run the command line argv (sys.argv[1:] when None) in this process
    and return its exit code; it never exits the process.  A failed write
    to stdout, of the help or of a report, exits 2 with "error: ..." as
    bad input does."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return COMMANDS[args.command][2](args)
    except SystemExit as exc:
        return exc.code
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ComputationError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def main():
    """The process entry point: run the command line, flush stdout and
    stderr, and end the process with run's exit code without interpreter
    teardown, which costs some 11 ms and does nothing this program needs:
    every file a command writes is closed before run returns, and nothing
    registers an atexit handler or starts a thread.  When a flush fails
    (a closed pipe, a full disk), sys.exit lets the interpreter report it
    as it always has, by "Exception ignored" and exit code 120."""
    code = run()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
