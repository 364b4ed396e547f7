"""Command-line driver.

Every subcommand reads an algebra file, runs exact computations, and
prints either plain values (basis, hh, deform, transfer tables) or a
report of named checks.  The process exits 0 only when all checks
pass; bad input exits 2 and typed computation errors exit 1.
"""

import argparse
import sys

from .deform import (DeformedAlgebra, build_presentation, deformation_equivalence,
                     hat_f, interreduce_presentation, verify_presentation)
from .errors import ComputationError, InputError, NotACocycle
from .fields import Field
from .fileio import (emit_algebra_text, emit_dot, parse_algebra_file,
                     parse_module_file, signed_sum_str)
from .hochschild import (cochain_from_pairs, full_differential, hh_summary,
                         is_cocycle, is_full_cocycle)
from .linalg import _columns, map_compose
from .modcat import functor_F, module_from_file, reconstruct, roundtrip_triple
from .morita import (homotopy_h, idempotent_context, matrix_context,
                     transfer_phi, transfer_psi, verify_morita_deformed)
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


def cmd_basis(args):
    af, basis = _load_algebra(args)
    print("dim A = %d" % basis.dim)
    for i in range(basis.dim):
        print(basis.labels[i])
    return 0


def cmd_hh(args):
    af, basis = _load_algebra(args)
    z2, b2, hh2 = hh_summary(basis)
    print("dim Z^2 = %d" % z2)
    print("dim B^2 = %d" % b2)
    print("dim HH^2 = %d" % hh2)
    return 0


def cmd_check_cocycle(args):
    af, basis = _load_algebra(args)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    ok = is_cocycle(f, basis)
    detail = "%d table entries, d^2 f %s 0" % (len(f.table), "=" if ok else "!=")
    return _emit_report([("cocycle", ok, detail)], args.report)


def cmd_deform(args):
    af, basis = _load_algebra(args)
    pres, _ = build_presentation(basis, cochain_from_pairs(basis, af.cocycle_pairs))
    if args.interreduce:
        pres = interreduce_presentation(pres, basis.field, args.max_degree)
    header = "presentation of the deformed algebra (dim %d)" % (2 * basis.dim)
    text = emit_algebra_text(basis.field, pres.quiver, pres.relations,
                             origins=pres.origins, header=header)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.dot:
        dot = emit_dot(pres.quiver, dashed_arrows=pres.dashed, graph_name="Qf")
        with open(args.dot, "w") as fh:
            fh.write(dot)
    return 0


def cmd_verify_deform(args):
    af, basis = _load_algebra(args)
    fld = basis.field
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    checks = []

    # the presentation is built first, since build_presentation proves
    # the cocycle condition and the image condition on its way
    try:
        pres, _ = build_presentation(basis, f)
        ok_cocycle = True
    except NotACocycle:
        ok_cocycle = False
    checks.append(("cocycle", ok_cocycle,
                   "d^2 f %s 0" % ("=" if ok_cocycle else "!=")))
    deformed = DeformedAlgebra(basis, f)
    ok_assoc = deformed.associativity_holds()
    if ok_assoc:
        detail = "all %d^3 basis triples" % deformed.dim
    else:
        detail = ("(xy)z != x(yz) at (x, y, z) = (%s, %s, %s)"
                  % tuple(deformed.labels[i] for i in deformed.witness))
    checks.append(("associativity", ok_assoc, detail))
    if not ok_cocycle:
        checks.append(("presentation", False, "skipped: not a cocycle"))
        return _emit_report(checks, args.report)

    # products of hatted arrows track f-hat, on basis paths and relations
    evaluate = deformed.evaluation(basis.quiver)
    bad = 0
    for p in basis.paths:
        w = FreeElement.from_path(basis.quiver, fld, p)
        if evaluate(w) != deformed.pair_to_coords(
                (basis.normal_form(w), hat_f(w, basis, f))):
            bad += 1
    checks.append(("path-products", bad == 0,
                   "%d of %d basis paths multiply to (w, f^(w))"
                   % (basis.dim - bad, basis.dim)))

    bad = sum(1 for rel in basis.relations if evaluate(rel)
              != deformed.pair_to_coords((basis.zero(), hat_f(rel, basis, f))))
    checks.append(("relation-identity", bad == 0,
                   "%d of %d relations land on (0, f^(rho))"
                   % (len(basis.relations) - bad, len(basis.relations))))

    checks.append(("image-condition", True,
                   "holds for the given representative" if pres.cocycle is f
                   else "restored by a cohomologous representative"))
    if pres.cocycle is not f:
        deformed = DeformedAlgebra(basis, pres.cocycle)
    checks.extend(verify_presentation(deformed, pres, args.max_degree))
    return _emit_report(checks, args.report)


def cmd_equiv(args):
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
    ok_f = is_cocycle(f, basis)
    checks.append(("cocycle-1", ok_f, "d^2 f %s 0" % ("=" if ok_f else "!=")))
    ok_g = False
    g = None
    if same:
        g = cochain_from_pairs(basis, {
            key: FreeElement(af.quiver, fld, dict(value.terms))
            for key, value in af2.cocycle_pairs.items()})
        ok_g = is_cocycle(g, basis)
    checks.append(("cocycle-2", ok_g,
                   "d^2 f %s 0" % ("=" if ok_g else "!=") if same
                   else "skipped: different algebras"))

    if same and ok_f and ok_g:
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


def cmd_transfer(args):
    af, basis = _load_algebra(args)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    ctx = _context_of(args, af, basis)
    g = transfer_phi(ctx, f, 2)

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

    checks = []
    checks.append(("cocycle", is_full_cocycle(g, ctx.b), "d^2 g = 0 on B"))
    df = full_differential(f, ctx.a)
    checks.append(_cochain_check("chain-map-phi", full_differential(g, ctx.b),
                                 transfer_phi(ctx, df, 3), labels,
                                 "d phi^2 f = phi^3 d f"))
    back = transfer_psi(ctx, g, 2)
    checks.append(_cochain_check("chain-map-psi", full_differential(back, ctx.a),
                                 transfer_psi(ctx, full_differential(g, ctx.b), 3),
                                 ctx.a.labels, "d psi^2 g = psi^3 d g"))
    lhs = homotopy_h(ctx, df, 3) + full_differential(homotopy_h(ctx, f, 2), ctx.a)
    checks.append(_cochain_check("homotopy", lhs, f - back, ctx.a.labels,
                                 "h^3 d f + d h^2 f = f - psi^2 phi^2 f"))
    return _emit_report(checks, args.report)


def cmd_verify_morita(args):
    af, basis = _load_algebra(args)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    ctx = _context_of(args, af, basis)
    return _emit_report(verify_morita_deformed(ctx, f), args.report)


def cmd_module_roundtrip(args):
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivdeform",
        description="Exact deformations of bound quiver algebras.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", metavar="K", default=None,
                        help="override the field declared in the file (Q or F<p>)")
    common.add_argument("--max-degree", type=int, default=30, metavar="N",
                        help="path length cap for basis computations (default 30)")
    common.add_argument("--report", choices=("text", "json-lines"),
                        default="text", help="format of the check lines")

    p = sub.add_parser("basis", parents=[common],
                       help="print the monomial basis of kQ/I")
    p.add_argument("file")
    p.set_defaults(handler=cmd_basis)

    p = sub.add_parser("hh", parents=[common],
                       help="dimensions of degree-2 cocycles, coboundaries and HH^2")
    p.add_argument("file")
    p.set_defaults(handler=cmd_hh)

    p = sub.add_parser("check-cocycle", parents=[common],
                       help="check d^2 f = 0 for the cocycle lines of the file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_check_cocycle)

    p = sub.add_parser("deform", parents=[common],
                       help="emit a quiver presentation of the deformed algebra")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="OUT",
                   help="write the presentation here instead of stdout")
    p.add_argument("--dot", metavar="OUT",
                   help="also write the deformed quiver as a DOT digraph")
    p.add_argument("--interreduce", action="store_true",
                   help="emit the completed rewrite rules instead of the raw generators")
    p.set_defaults(handler=cmd_deform)

    p = sub.add_parser("verify-deform", parents=[common],
                       help="verify the deformed algebra and its presentation")
    p.add_argument("file")
    p.set_defaults(handler=cmd_verify_deform)

    p = sub.add_parser("equiv", parents=[common],
                       help="decide whether two cocycles give equivalent deformations")
    p.add_argument("file")
    p.add_argument("other")
    p.set_defaults(handler=cmd_equiv)

    for name, handler, text in (
            ("transfer", cmd_transfer,
             "transfer the cocycle across a Morita context"),
            ("verify-morita", cmd_verify_morita,
             "verify the deformed Morita equivalence")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("file")
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--matrix", type=int, metavar="N",
                         help="matrix amplification M_N(A)")
        grp.add_argument("--idempotent", metavar="V1,V2,...",
                         help="corner context at the sum of the named vertex idempotents")
        p.set_defaults(handler=handler)

    p = sub.add_parser("module-roundtrip", parents=[common],
                       help="carve a module into an uple and rebuild it")
    p.add_argument("file", help="algebra file with cocycle lines")
    p.add_argument("module", help="module file over the deformed algebra")
    p.set_defaults(handler=cmd_module_roundtrip)
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
