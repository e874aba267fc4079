"""Spans and counters recorded around calls into ``leibniz_lab``.

The library carries no tracing of its own, so the benchmark wraps it from
outside: every public function of each layer module (rebound in every
``leibniz_lab`` namespace and module-level dict that holds it, so that
``symplectic.kernel_basis`` and ``cli._HANDLERS`` are traced too), plus
``Matrix.apply``, ``Matrix.__matmul__`` and ``LeibnizAlgebra.bracket``.
A span is (name, parent span, start, end, raised, x1, x2); x1/x2 hold a
few sizes read from arguments and results, such as rows in and rank out
of an elimination.  Spans live in flat arrays and are written out once at
the end.  Scalar arithmetic is counted in a separate pass, so its wrapper
cost does not distort span times.
"""

import functools
import json
import sys
import time
import types
from array import array

LAYERS = ("scalars", "linalg", "leibniz", "representations", "dendriform",
          "symplectic", "structures", "kahler", "io", "cli")
METHODS = (("linalg", "Matrix", ("apply", "__matmul__")),
           ("leibniz", "LeibnizAlgebra", ("bracket",)))
SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__")
COLUMNS = ("name", "parent", "start", "end", "raised", "x1", "x2")

# Calls that run one exact elimination: x1 = rows in, x2 = rank out.
ELIMINATIONS = ("linalg.kernel_basis", "linalg.rank", "linalg.invert",
                "linalg.solve_linear")
HOOKS = {
    "linalg.kernel_basis": lambda a, r: (a[0].rows, a[0].cols - len(r)),
    "linalg.rank": lambda a, r: (a[0].rows, r),
    "linalg.invert": lambda a, r: (a[0].rows, a[0].rows),
    "linalg.solve_linear": lambda a, r: (
        (a[0].rows, a[0].cols - len(r[1])) if isinstance(r, tuple)
        else (a[0].rows, 0)),
    "symplectic.solve_symplectic_space": lambda a, r: (len(r[0]), 0),
    "symplectic.sample_nondegenerate": lambda a, r: (int(r is not None), 0),
    "structures.enumerate_diagonal_products": lambda a, r: (len(r), 0),
}


def lab_modules():
    """Import every layer module and return {layer: module}."""
    import importlib
    return {layer: importlib.import_module("leibniz_lab." + layer)
            for layer in LAYERS}


class Tracer:
    """Span recorder; ``on`` gates recording, so checks can run untraced."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.cols = {c: array("d" if c in ("start", "end") else "q")
                     for c in COLUMNS}
        self._stack = [-1]
        self._undo = []
        self.on = False
        self.ops = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        c = self.cols
        names, parents, starts, ends = c["name"], c["parent"], c["start"], c["end"]
        raised, x1, x2 = c["raised"], c["x1"], c["x2"]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            raised.append(0)
            x1.append(0)
            x2.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                x1[idx], x2[idx] = hook(args, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        if isinstance(owner, dict):
            owner[attr] = value
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            setattr(owner, attr, value)
            self._undo.append(lambda: setattr(owner, attr, old))

    def install_spans(self):
        mods = lab_modules()
        wrapped = {}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__):
                    wrapped[value] = self._span(layer + "." + attr, value)
        namespaces = [m for name, m in sys.modules.items()
                      if name == "leibniz_lab" or name.startswith("leibniz_lab.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrapped:
                            self._set(value, key, wrapped[item])
        for layer, cls_name, methods in METHODS:
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                self._set(cls, meth, self._span(
                    "%s.%s.%s" % (layer, cls_name, meth), vars(cls)[meth]))

    def install_counting(self):
        cls = lab_modules()["scalars"].Scalar
        tracer = self
        for op in SCALAR_OPS:
            def counted(*args, _op=vars(cls)[op]):
                if tracer.on:
                    tracer.ops += 1
                return _op(*args)
            self._set(cls, op, functools.wraps(vars(cls)[op])(counted))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def table(self):
        """The recorded spans as one JSON-ready dict."""
        out = {c: self.cols[c].tolist() for c in COLUMNS}
        out["names"] = list(self.names)
        out["ops"] = self.ops
        return out


def write_table(table, path):
    with open(path, "w") as handle:
        json.dump(table, handle, separators=(",", ":"))


def read_table(path):
    with open(path) as handle:
        return json.load(handle)


def layer_metrics(tables, jobs):
    """Per-layer counts and busy times from span tables (one per process)."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    raised = dict.fromkeys(LAYERS, 0)
    calls = {}
    rows = rank = constraint_rows = kernel_dim = 0
    attempts = samples = found = patterns = hits = 0
    parse_s = serialize_s = validate = verdict_calls = 0
    run_command_s = 0.0
    for t in tables:
        names = t["names"]
        fn = [names[i] for i in t["name"]]
        parent, raised_col = t["parent"], t["raised"]
        dur = [e - s for s, e in zip(t["start"], t["end"])]
        own = list(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        for i, name in enumerate(fn):
            layer, _, short = name.partition(".")
            up = fn[parent[i]] if parent[i] >= 0 else ""
            self_s[layer] += own[i]
            raised[layer] += raised_col[i]
            calls[name] = calls.get(name, 0) + 1
            x1, x2 = t["x1"][i], t["x2"][i]
            if name in ELIMINATIONS and not raised_col[i]:
                rows += x1
                rank += x2
            if name == "linalg.kernel_basis" and up == "symplectic.solve_symplectic_space":
                constraint_rows += x1
            if name == "symplectic.solve_symplectic_space":
                kernel_dim += x1
            if name == "linalg.is_singular" and up == "symplectic.sample_nondegenerate":
                attempts += 1
            if name == "symplectic.sample_nondegenerate":
                samples += 1
                found += x1
            if name == "structures.classify_product" and up == "structures.enumerate_diagonal_products":
                patterns += 1
            if name == "structures.enumerate_diagonal_products":
                hits += x1
            func = name.rsplit(".", 1)[-1]
            if func.startswith(("verify_", "check_", "classify_")):
                verdict_calls += 1
                if up.startswith("io."):
                    validate += 1
            if layer == "io" and not up.startswith("io."):
                if short.startswith("parse_") or short == "load_json":
                    parse_s += dur[i]
                elif short.startswith("serialize_"):
                    serialize_s += dur[i]
            if name == "cli.run_command":
                run_command_s += dur[i]

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def prefixed(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    m = {"scalars.ops": sum(t["ops"] for t in tables)}
    for layer in LAYERS:
        m[layer + ".self_s"] = self_s[layer]
    m.update({
        "linalg.elim_rows": rows,
        "linalg.elim_rank": rank,
        "linalg.useful_row_ratio": rank / rows if rows else 0.0,
        "linalg.matvec_calls": count("linalg.Matrix.apply",
                                     "linalg.Matrix.__matmul__"),
        "leibniz.bracket_calls": count("leibniz.LeibnizAlgebra.bracket"),
        "leibniz.verify_calls": count("leibniz.verify_leibniz"),
        "dendriform.verify_calls": prefixed("dendriform.verify_"),
        "symplectic.verify_calls": prefixed("symplectic.verify_"),
        "symplectic.constraint_rows": constraint_rows,
        "symplectic.kernel_dim": kernel_dim,
        "symplectic.sample_attempts": attempts,
        "symplectic.sample_found_ratio": found / samples if samples else 0.0,
        "structures.classify_calls": count("structures.classify_product",
                                           "structures.classify_complex"),
        "structures.enum_patterns": patterns,
        "structures.enum_hit_ratio": hits / patterns if patterns else 0.0,
        "kahler.verify_per_instance": verdict_calls / jobs,
        "io.parse_s": parse_s,
        "io.serialize_s": serialize_s,
        "io.validate_calls": validate,
    })
    for layer in LAYERS:
        m[layer + ".raised"] = raised[layer]
    return m, run_command_s
