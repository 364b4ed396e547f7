"""Traced in-process run of a list of CLI jobs, for the per-layer metrics.

    python3 bench/trace.py JOBS.json RESULT.json

JOBS.json holds a list of argument lists.  Each job runs through
`quivdeform.cli.run(argv)` in this process, three times over:

1. untraced, to time the pass without wrappers;
2. traced: the public functions of every layer module, and the
   module-level helpers that `verify_morita_deformed` hides its work in,
   are replaced by timing wrappers in every module namespace where they
   are looked up, and the layer-owned methods listed below are replaced
   on their classes.  A span's self time is its duration minus that of
   the spans it encloses;
3. counting: only the `Field` operations are wrapped, by counters, since
   a timing wrapper on them would dominate the times of pass 2.

Nothing under src/ is edited.  RESULT.json receives each pass's
(exit code, stdout, stderr) per job and the per-layer metrics.
"""

import contextlib
import io
import json
import sys
import time
import traceback

import quivdeform
from quivdeform import (cli, deform, fields, fileio, hochschild, linalg, modcat,
                        morita, quiver)

LAYERS = {"quiver": quiver, "hochschild": hochschild, "linalg": linalg,
          "deform": deform, "morita": morita, "modcat": modcat, "fileio": fileio}

# private module-level helpers worth a span of their own
HELPERS = {"morita": ("_phi_operator", "_tensor_side")}

# methods that carry a layer's work, by class
METHODS = {
    "quiver": [(quiver.AlgebraBasis, "normal_form")],
    "deform": [(deform.DeformedAlgebra, "__init__"),
               (deform.DeformedAlgebra, "associativity_holds")],
    "morita": [(morita.Bimodule, "violations"), (morita.DeformedBimodule, "violations"),
               (morita.TensorProduct, "__init__")],
    "modcat": [(modcat.LeftModule, "_validate"), (modcat.UpleModule, "_validate")],
}

# rref is left unwrapped so that its time stays with rank, solve,
# nullspace and invert_matrix, which are the calls the layers make;
# path_order_key is a sort key, called once per comparison of two terms
SKIP = {"linalg": ("rref",), "quiver": ("path_order_key",)}

# spans whose arguments or results give a size metric
SIZED = ("quiver.compute_basis", "linalg.rank", "morita.matrix_context",
         "morita.idempotent_context")

# metric -> spans whose self times it sums
TIMES = {
    "quiver.compute_basis_s": ["quiver.compute_basis"],
    "quiver.normal_form_s": ["quiver.AlgebraBasis.normal_form", "quiver.normal_form"],
    "hochschild.hh_summary_s": ["hochschild.hh_summary"],
    "hochschild.differential_s": ["hochschild.differential"],
    "hochschild.cobound_solve_s": ["hochschild.cobound_solve"],
    "hochschild.full_differential_s": ["hochschild.full_differential"],
    "linalg.rank_s": ["linalg.rank"],
    "linalg.solve_s": ["linalg.solve"],
    "linalg.nullspace_s": ["linalg.nullspace"],
    "linalg.invert_matrix_s": ["linalg.invert_matrix"],
    "linalg.matmul_s": ["linalg.matmul"],
    "deform.deformed_algebra_s": ["deform.DeformedAlgebra.__init__"],
    "deform.associativity_s": ["deform.DeformedAlgebra.associativity_holds"],
    "deform.image_condition_s": ["deform.check_image_condition"],
    "deform.build_presentation_s": ["deform.build_presentation"],
    "deform.verify_presentation_s": ["deform.verify_presentation"],
    "deform.equivalence_s": ["deform.deformation_equivalence"],
    "morita.context_s": ["morita.matrix_context", "morita.idempotent_context",
                         "morita.identity_context"],
    "morita.transfer_s": ["morita.transfer_phi", "morita.transfer_psi",
                          "morita._phi_operator"],
    "morita.homotopy_s": ["morita.homotopy_h"],
    "morita.hat_bimodule_s": ["morita.build_hat_P", "morita.build_hat_Q"],
    "morita.bimodule_check_s": ["morita.Bimodule.violations",
                                "morita.DeformedBimodule.violations"],
    "morita.deform_structure_s": ["morita.deform_structure_algebra",
                                  "morita.regular_deformed_uple"],
    "morita.tensor_s": ["morita.TensorProduct.__init__", "morita.tensor_over"],
    "morita.carve_s": ["morita._tensor_side"],
    "morita.triple_check_s": ["morita.triple_violations"],
    "modcat.module_check_s": ["modcat.LeftModule._validate", "modcat.UpleModule._validate",
                              "modcat.module_from_file"],
    "modcat.reconstruct_s": ["modcat.reconstruct"],
    "modcat.functor_F_s": ["modcat.functor_F"],
    "modcat.roundtrip_s": ["modcat.roundtrip_triple"],
    "fileio.parse_s": ["fileio.parse_algebra_file", "fileio.parse_algebra_text",
                       "fileio.parse_expression", "fileio.parse_path",
                       "fileio.parse_module_file", "fileio.parse_module_text"],
    "cli.self_s": ["cli.run"],
}
CALLS = {
    "quiver.compute_basis_calls": "quiver.compute_basis",
    "quiver.normal_form_calls": "quiver.AlgebraBasis.normal_form",
    "hochschild.differential_calls": "hochschild.differential",
    "hochschild.full_differential_calls": "hochschild.full_differential",
    "linalg.rank_calls": "linalg.rank",
    "linalg.matmul_calls": "linalg.matmul",
    "deform.deformed_algebra_calls": "deform.DeformedAlgebra.__init__",
}


class Tracer:
    """Span stack with self time, call counts and a few sizes."""

    def __init__(self):
        self.stack = []
        self.self_s = {}
        self.calls = {}
        self.basis_dim = 0
        self.b_dim = 0
        self.rank_entries = 0

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                inner = self.stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + span - inner
                self.calls[name] = self.calls.get(name, 0) + 1
                if self.stack:
                    self.stack[-1] += span
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def sizes(self, name, fn):
        """Record sizes from the arguments or the result of fn."""
        def wrapper(*args, **kwargs):
            if name == "linalg.rank" and args and args[0]:
                self.rank_entries += len(args[0]) * len(args[0][0])
            out = fn(*args, **kwargs)
            if name == "quiver.compute_basis":
                self.basis_dim = max(self.basis_dim, out.dim)
            elif name in ("morita.matrix_context", "morita.idempotent_context"):
                self.b_dim = max(self.b_dim, out.b.dim)
            return out
        return wrapper


def layer_functions():
    """(span name, function) for every public function of the layers."""
    out = []
    for layer, mod in LAYERS.items():
        for attr, fn in vars(mod).items():
            private = attr.startswith("_") and attr not in HELPERS.get(layer, ())
            if (callable(fn) and not isinstance(fn, type) and not private
                    and getattr(fn, "__module__", None) == mod.__name__
                    and attr not in SKIP.get(layer, ())):
                out.append(("%s.%s" % (layer, attr), fn))
    return out


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, and restore them on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def span_replacements(tracer):
    """Wrap functions where every package module looks them up, and the
    chosen methods on their classes; cli.run is the root span."""
    modules = [m for m in vars(quivdeform).values() if isinstance(m, type(sys))]
    modules.append(quivdeform)
    out = []
    for name, fn in layer_functions():
        inner = tracer.sizes(name, fn) if name in SIZED else fn
        wrapped = tracer.wrap(name, inner)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    out.append((mod, attr, wrapped))
    for layer, methods in METHODS.items():
        for cls, attr in methods:
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            out.append((cls, attr, tracer.wrap(name, vars(cls)[attr])))
    out.append((cli, "run", tracer.wrap("cli.run", cli.run)))
    return out


def count_replacements(counts):
    out = []
    for op in ("mul", "add", "inv"):
        fn = vars(fields.Field)[op]

        def counted(self, *args, _fn=fn, _op=op):
            counts[_op] += 1
            return _fn(self, *args)
        out.append((fields.Field, op, counted))
    return out


def run_pass(jobs):
    """Run every job through cli.run; returns (wall seconds, outputs)."""
    outputs = []
    start = time.perf_counter()
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(argv)
            except Exception:  # a crash is a failed job, reported by its check
                traceback.print_exc()
                rc = -1
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outputs


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        jobs = json.load(fh)
    untraced_s, untraced = run_pass(jobs)

    tracer = Tracer()
    with patched(span_replacements(tracer)):
        traced_s, traced = run_pass(jobs)

    counts = {"mul": 0, "add": 0, "inv": 0}
    with patched(count_replacements(counts)):
        _, counted = run_pass(jobs)

    metrics = {}
    named = set()
    for metric, spans in TIMES.items():
        metrics[metric] = (sum(tracer.self_s.get(s, 0.0) for s in spans), "s")
        named.update(spans)
    for layer in LAYERS:
        rest = [s for s in tracer.self_s if s.startswith(layer + ".") and s not in named]
        metrics[layer + ".other_s"] = (sum(tracer.self_s[s] for s in rest), "s")
    for metric, span in CALLS.items():
        metrics[metric] = (tracer.calls.get(span, 0), "count")
    metrics["quiver.basis_dim"] = (tracer.basis_dim, "count")
    metrics["linalg.rank_entries"] = (tracer.rank_entries, "count")
    metrics["morita.b_dim"] = (tracer.b_dim, "count")
    for op in ("mul", "add", "inv"):
        metrics["fields.%s_calls" % op] = (counts[op], "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump({"outputs": {"untraced": untraced, "traced": traced, "counted": counted},
                   "metrics": metrics}, fh)


if __name__ == "__main__":
    main()
