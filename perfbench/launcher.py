"""Traced launcher: run one CLI verb in process and time its layer boundaries.

    PYTHONPATH=src python3 perfbench/launcher.py TRACE.json -- VERB [ARGS...]

It imports `uqson.cli`, wraps the public functions of each layer from
outside, calls `uqson.cli.main(argv)` and, when the job ends, writes the
per-boundary statistics and counters to TRACE.json. It exits with the
verb's exit code. Only public names are wrapped, so the launcher survives
changes to the private straightening kernel.

Every boundary keeps calls, total time and self time (total minus the time
of wrapped boundaries called inside it; the wrapper's own bookkeeping is
charged to neither). Ring arithmetic, products and brackets are called up
to ~10^5 times per job, so the launcher keeps these aggregates in place of
one span per call.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    def __init__(self):
        self.stats = {}      # group -> [calls, total_s, self_s]
        self.counters = {"pbw.mul.terms_out": 0, "pbw.mul.max_terms": 0,
                         "reps.build.nnz": 0, "reps.residual.max": 0.0,
                         "reps.commutant.dim": [], "jsonio.bytes": 0}
        self.stack = []      # per open call: [seconds of wrapped calls inside it]
        self.missing = []

    def wrap(self, func, group, on_result=None):
        stats = self.stats.setdefault(group, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            done = False
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0
                stats[2] += t1 - t0 - frame[0]
                if done and on_result is not None:
                    on_result(result, args, kwargs)
                if stack:
                    stack[-1][0] += clock() - t0
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def patch(self, module, attr, group, **kw):
        """Replace `module.attr` everywhere a uqson module holds it by name."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self.wrap(orig, group, **kw)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("uqson"):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def patch_method(self, cls, attr, group, **kw):
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, group, **kw)))
        else:
            setattr(cls, attr, self.wrap(raw, group, **kw))

    def install(self):
        from uqson import coeffring, djembed, expr, jsonio, pbw, reps
        from uqson.pbw import AlgebraElement

        c = self.counters

        def file_bytes(result, args, kwargs):
            path = args[-1] if args else kwargs.get("path")
            try:
                c["jsonio.bytes"] += os.path.getsize(path)
            except (OSError, TypeError):
                pass

        def mul_terms(result, args, kwargs):
            if isinstance(result, AlgebraElement):
                terms = len(result.support())
                c["pbw.mul.terms_out"] += terms
                c["pbw.mul.max_terms"] = max(c["pbw.mul.max_terms"], terms)

        def build_nnz(result, args, kwargs):
            c["reps.build.nnz"] += sum(len(op.entries) for op in result)

        def residual_max(result, args, kwargs):
            worst = max((row["residual"] for row in result), default=0.0)
            c["reps.residual.max"] = max(c["reps.residual.max"], worst)

        def commutant(result, args, kwargs):
            c["reps.commutant.dim"].append(int(result))

        self.patch(jsonio, "load_json", "jsonio.load", on_result=file_bytes)
        self.patch(jsonio, "params_from_json", "jsonio.load")
        self.patch(jsonio, "rep_from_json", "jsonio.load")
        self.patch(jsonio, "dump_json", "jsonio.dump", on_result=file_bytes)
        self.patch(jsonio, "params_to_json", "jsonio.dump")
        self.patch(jsonio, "rep_to_json", "jsonio.dump")
        self.patch(expr, "evaluate_expression", "expr.evaluate")
        self.patch_method(AlgebraElement, "__mul__", "pbw.mul", on_result=mul_terms)
        self.patch_method(AlgebraElement, "from_word", "pbw.from_word")
        self.patch(pbw, "verify_defining_relations", "pbw.verify")
        self.patch(pbw, "verify_commutation_relations", "pbw.verify")
        self.patch(pbw, "associativity_fuzz", "pbw.fuzz")
        for op in ("__mul__", "__add__", "__sub__", "__neg__"):
            self.patch_method(coeffring.LaurentPoly, op, "coeffring.laurent")
        self.patch(coeffring, "qbracket_numeric", "coeffring.qbracket")
        self.patch(coeffring, "qpow_complex", "coeffring.qbracket")
        self.patch(reps, "random_generic_params", "reps.sample")
        self.patch(reps, "build_representation", "reps.build", on_result=build_nnz)
        self.patch(reps, "relation_residual", "reps.residual", on_result=residual_max)
        self.patch(reps, "commutant_dimension", "reps.commutant", on_result=commutant)
        self.patch(djembed, "verify_embedding", "djembed.embed")
        self.patch(djembed, "verify_psi", "djembed.psi")

    def dump(self, path, import_s):
        record = {"import_s": import_s, "stats": self.stats, "counters": self.counters,
                  "missing": self.missing}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: launcher.py TRACE.json -- VERB [ARGS...]", file=sys.stderr)
        return 2
    trace_path, argv = sys.argv[1], sys.argv[3:]
    import uqson.cli

    import_s = time.perf_counter() - T_START
    tracer = Tracer()
    tracer.install()
    try:
        return uqson.cli.main(argv)
    finally:
        tracer.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
