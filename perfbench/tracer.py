"""Per-layer tracing of one `run_verify` call, installed from outside the package.

`Tracer.install()` replaces askeykit's public functions with wrappers in
every `askeykit` module namespace (and frozen registry record) that binds
them, so calls made through any import path are seen.  Nothing inside the
package is edited.

* Functions of `ops`, `families`, `burchnall`, `toda`, `functional` and
  `sampling` get one span per call: name (`module.function`), start, end,
  parent span and case.  All spans of one verify case share the case's id.
* `algebra` is called about 10^6 times per suite run, so its kernels
  (`Poly`/`Laurent`/`SymLaurent` products, `compose_affine`, `exact_div`,
  `chebyshev_project`) get aggregated counters and time instead of spans,
  and `GaussianRational` operations are counted only.
* The caller opens the root spans (`cli.run_verify`, `cli.render_report`).

Spans are kept in arrays in memory; `write()` dumps them when the run ends.
A span's self time is its duration minus the time covered by its child
spans and by the algebra kernels called directly under it.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
import types
from array import array
from collections import Counter

MODULES = ("algebra", "ops", "families", "burchnall", "toda", "functional", "sampling", "cli")
SPAN_MODULES = ("ops", "families", "burchnall", "toda", "functional", "sampling")

# Functions whose argument reuse is measured in the wrapper.
REUSE_FUNCTIONS = ("families.raise_chain", "families.standard_poly", "functional.build_functional")

# The operator applications of `ops`; a call nested inside another one (a
# shift inside `backward_shift`) is not counted again.
OPERATORS = frozenset(
    "ops." + f
    for f in (
        "derivative", "translate", "forward_shift", "backward_shift", "neg_forward_shift",
        "delta_x", "delta_x2", "q_shift", "q_derivative", "q_derivative_inverse",
        "aw_eta", "aw_Dq_raw", "aw_Dq",
    )
)

KERNELS = ("poly_mul", "compose_affine", "exact_div", "chebyshev_project")
SCALAR_OPS = ("scalar_mul", "scalar_add", "scalar_inverse")


def _bits(value) -> int:
    """Largest numerator or denominator bit length in a Gaussian rational."""
    return max(
        value.re.numerator.bit_length(), value.re.denominator.bit_length(),
        value.im.numerator.bit_length(), value.im.denominator.bit_length(),
    )


class Tracer:
    def __init__(self):
        self.mods = {m: importlib.import_module(f"askeykit.{m}") for m in MODULES}
        self.clock = time.perf_counter
        self.names: list = []
        self.name_ids: dict = {}
        # one entry per span, in opening order (a parent precedes its children)
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_case = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_kernel = array("d")  # algebra kernel time directly under the span
        self.stack: list = []
        self.case = -1
        self.case_labels: list = []
        self.case_errors: dict = {}  # case id -> (module.function, exception type)
        self.errors: Counter = Counter()  # (module, exception type) -> count
        self.active: Counter = Counter()  # name id -> open calls of that name
        self.inclusive: Counter = Counter()  # name id -> time of outermost calls
        self.calls: Counter = Counter()
        self.reuse = {name: set() for name in REUSE_FUNCTIONS}
        self.operator_depth = 0
        self.operator_applications = 0
        self.chain_bits_max = 0
        # kernel stats: [calls, coefficient products, inclusive seconds, depth]
        self.kernel = {k: [0, 0, 0.0, 0] for k in KERNELS}
        self.kernel_depth = 0
        self.kernel_time = 0.0
        self.scalar = {k: [0] for k in SCALAR_OPS}
        self.originals: dict = {}  # original function -> wrapper

    # -- spans --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_case.append(self.case)
        self.s_kernel.append(0.0)
        self.s_end.append(0.0)
        self.stack.append(i)
        self.active[nid] += 1
        self.s_start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        end = self.clock()
        self.s_end[i] = end
        self.stack.pop()
        nid = self.s_name[i]
        self.active[nid] -= 1
        if not self.active[nid]:
            self.inclusive[nid] += end - self.s_start[i]

    def _module_of(self, span: int) -> str:
        return self.names[self.s_name[span]].split(".", 1)[0] if span >= 0 else "cli"

    def _escaped(self, span: int, exc: BaseException) -> None:
        module = self._module_of(span)
        if module != self._module_of(self.s_parent[span]):
            self.errors[(module, type(exc).__name__)] += 1
            self.case_errors.setdefault(self.case, (self.names[self.s_name[span]], type(exc).__name__))

    def _span_wrapper(self, fn, name: str):
        nid = self.name_id(name)
        tracer = self
        reuse = self.reuse.get(name)
        is_operator = name in OPERATORS
        is_chain = name == "families.raise_chain"

        def wrapper(*args, **kwargs):
            tracer.calls[nid] += 1
            first = False
            if reuse is not None:
                key = (args, tuple(sorted(kwargs.items())))
                first = key not in reuse
                reuse.add(key)
            if is_operator:
                if not tracer.operator_depth:
                    tracer.operator_applications += 1
                tracer.operator_depth += 1
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._escaped(i, exc)
                raise
            finally:
                tracer.close(i)
                if is_operator:
                    tracer.operator_depth -= 1
            if is_chain and first:
                bits = max((_bits(c) for c in out.coeffs), default=0)
                if bits > tracer.chain_bits_max:
                    tracer.chain_bits_max = bits
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- algebra ------------------------------------------------------------

    def _kernel_wrapper(self, fn, kernel: str, products=None):
        stats = self.kernel[kernel]
        tracer = self
        clock = self.clock

        def wrapper(*args):
            stats[0] += 1
            if products is not None:
                stats[1] += products(*args)
            stats[3] += 1
            tracer.kernel_depth += 1
            t0 = clock()
            try:
                return fn(*args)
            except BaseException as exc:
                if tracer.kernel_depth == 1 and tracer.stack:
                    tracer.errors[("algebra", type(exc).__name__)] += 1
                raise
            finally:
                dt = clock() - t0
                stats[3] -= 1
                tracer.kernel_depth -= 1
                if not stats[3]:
                    stats[2] += dt
                if not tracer.kernel_depth:
                    tracer.kernel_time += dt
                    if tracer.stack:
                        tracer.s_kernel[tracer.stack[-1]] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _count_wrapper(fn, cell):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self) -> None:
        """Point every namespace and frozen registry record at the wrappers."""
        table = self.originals
        seen = set()

        def patch_record(obj):
            if id(obj) in seen or not dataclasses.is_dataclass(obj) or isinstance(obj, type):
                return
            seen.add(id(obj))
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, types.FunctionType) and value in table:
                    object.__setattr__(obj, f.name, table[value])

        for mod in self.mods.values():
            for key, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in table:
                    setattr(mod, key, table[value])
                elif isinstance(value, dict):
                    for v in value.values():
                        patch_record(v)
                else:
                    patch_record(value)

    def install(self) -> None:
        for short in SPAN_MODULES:
            mod = self.mods[short]
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    self.originals[fn] = self._span_wrapper(fn, f"{short}.{fname}")
        algebra = self.mods["algebra"]
        self.originals[algebra.chebyshev_project] = self._kernel_wrapper(
            algebra.chebyshev_project, "chebyshev_project"
        )
        self._rebind()
        self._install_algebra_methods(algebra)
        cli = self.mods["cli"]
        subseed = getattr(cli, "_subseed", None)
        if subseed is not None:  # run_verify derives each case's rng from its id
            tracer = self

            def case_subseed(seed, label):
                tracer.case = len(tracer.case_labels)
                tracer.case_labels.append(label)
                return subseed(seed, label)

            cli._subseed = case_subseed

    def _install_algebra_methods(self, algebra) -> None:
        Poly, Laurent, SymLaurent = algebra.Poly, algebra.Laurent, algebra.SymLaurent

        def poly_products(a, b):
            return len(a.coeffs) * (len(b.coeffs) if isinstance(b, Poly) else 1)

        def laurent_products(a, b):
            if isinstance(b, Laurent):
                return len(a.coeffs) * len(b.coeffs)
            if isinstance(b, SymLaurent):
                return len(a.coeffs) * max(2 * len(b.coeffs) - 1, 0)
            return len(a.coeffs)

        def sym_products(a, b):
            # products with a (Sym)Laurent are done by the nested Laurent product
            return 0 if isinstance(b, (Laurent, SymLaurent)) else len(a.coeffs)

        for cls, products in ((Poly, poly_products), (Laurent, laurent_products), (SymLaurent, sym_products)):
            w = self._kernel_wrapper(cls.__mul__, "poly_mul", products)
            cls.__mul__ = w
            cls.__rmul__ = w
        Poly.compose_affine = self._kernel_wrapper(Poly.compose_affine, "compose_affine")
        Poly.exact_div = self._kernel_wrapper(Poly.exact_div, "exact_div")
        Laurent.exact_div = self._kernel_wrapper(Laurent.exact_div, "exact_div")
        GR = algebra.GaussianRational
        groups = {
            "scalar_mul": ("__mul__", "__rmul__"),
            "scalar_add": ("__add__", "__radd__", "__sub__", "__rsub__"),
            "scalar_inverse": ("inverse",),
        }
        for op, attrs in groups.items():
            wrapped = {}
            for attr in attrs:
                fn = GR.__dict__[attr]
                if fn not in wrapped:
                    wrapped[fn] = self._count_wrapper(fn, self.scalar[op])
                setattr(GR, attr, wrapped[fn])

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Self time per span name, from the recorded spans."""
        n = len(self.s_name)
        covered = array("d", self.s_kernel)
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                covered[p] += self.s_end[i] - self.s_start[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.s_name[i]]] += self.s_end[i] - self.s_start[i] - covered[i]
        return out

    def metrics(self) -> dict:
        """Per-layer figures; units are given by the caller's metric table."""
        selfs = self.self_times()
        m = {}
        module_self = Counter()
        for name, s in selfs.items():
            module_self[name.split(".", 1)[0]] += s
        module_self["algebra"] += self.kernel_time
        for mod in MODULES:
            m[f"{mod}.self_s"] = module_self[mod]

        def incl(name):
            nid = self.name_ids.get(name)
            return self.inclusive[nid] if nid is not None else 0.0

        def calls(name):
            nid = self.name_ids.get(name)
            return self.calls[nid] if nid is not None else 0

        for k in KERNELS:
            calls_, products, seconds, _ = self.kernel[k]
            m[f"algebra.{k}.calls"] = calls_
            m[f"algebra.{k}.s"] = seconds
            if k == "poly_mul":
                m["algebra.poly_mul.coeff_products"] = products
        for op in SCALAR_OPS:
            m[f"algebra.{op}.calls"] = self.scalar[op][0]
        m["ops.operator_applications"] = self.operator_applications
        for name in self.name_ids:
            m[f"{name}.s"] = incl(name)
        for name, seen in self.reuse.items():
            c = calls(name)
            m[f"{name}.reuse_ratio"] = 1 - len(seen) / c if c else 0.0
        m["families.chain_coeff_bits_max"] = self.chain_bits_max
        m["sampling.s"] = module_self["sampling"]
        m["cli.render_s"] = incl("cli.render_report")
        for (mod, exc), count in self.errors.items():
            m[f"{mod}.errors.{exc}"] = count
        m["trace.spans"] = len(self.s_name)
        return m

    def write(self, path: str) -> None:
        """Dump all spans (times in ns from the first span's start) as JSON."""
        t0 = self.s_start[0] if len(self.s_start) else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "cases": self.case_labels,
                    "case_errors": {
                        self.case_labels[c]: list(v) for c, v in self.case_errors.items() if c >= 0
                    },
                    "columns": ["name", "parent", "case", "start_ns", "end_ns"],
                    "spans": [
                        [
                            self.s_name[i], self.s_parent[i], self.s_case[i],
                            round((self.s_start[i] - t0) * 1e9), round((self.s_end[i] - t0) * 1e9),
                        ]
                        for i in range(len(self.s_name))
                    ],
                },
                fh,
                separators=(",", ":"),
            )
