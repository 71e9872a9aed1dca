"""Spans around the library's public functions, installed from outside.

`Tracer.install()` replaces each target with a wrapper that records a
span (name, start, end, parent span, ideal) and restores the originals
on `uninstall()`.  Methods are patched on their class; a module-level
function is patched in every `monres` module that bound it, since
``from monres.x import f`` copies the reference.  The library itself is
not edited.
"""

from __future__ import annotations

import gzip
import sys
import time

MODULES = ("linalg", "chains", "monomials", "lattice", "vcomplex",
           "resolutions", "posetres", "classify", "cli")

# The public entry points of each layer.  Scalar-level helpers (Field
# arithmetic, Chain and Monomial operations, Matrix accessors) are left
# out: they run millions of times and a span would cost more than they
# do; their time shows as self time of the traced caller.
TARGETS = {
    "linalg": ["Matrix.rref", "Matrix.rank", "Matrix.solve", "Matrix.kernel_basis",
               "Matrix.inverse", "Matrix.mul", "column_space_basis"],
    "chains": ["boundary", "parse_chain", "format_chain"],
    "monomials": ["parse_ideal_text"],
    "lattice": ["LcmLattice.from_ideal", "LcmLattice.from_labels", "LcmLattice.from_json",
                "LcmLattice.to_json", "LcmLattice.closure", "LcmLattice.is_scarf_multidegree",
                "LcmLattice.homology_at", "LcmLattice.betti_numbers", "LcmLattice.betti_poset_ids",
                "LcmLattice.simplicial_complex_at", "LcmLattice.q_faces"],
    "vcomplex": ["complex_of_facets", "reduced_homology", "exact_closure", "class_in_homology",
                 "is_exact_closure_of", "prune_facets", "BasedComplex.homology",
                 "BasedComplex.is_complex"],
    "resolutions": ["taylor_resolution", "consecutive_cancellation", "find_unit_entry",
                    "minimize_resolution", "lift_cycle_in_simplex", "atomic_lattice_resolution",
                    "resolution_from_taylor_basis", "taylor_basis_from_resolution",
                    "verify_resolution", "maximal_approximation", "scarf_complex",
                    "MultigradedComplex.render_text", "MultigradedComplex.to_json",
                    "MultigradedComplex.from_json", "MultigradedComplex.restrict_to",
                    "MultigradedComplex.is_complex", "MultigradedComplex.is_minimal"],
    "posetres": ["poset_construction", "rlm_construction", "rlm_symbolic",
                 "certified_constant_rank", "HomologyBasis.canonical", "sigma_preimage",
                 "mv_connecting", "extract_basis_and_preimages"],
    "classify": ["classify", "is_scarf", "is_nearly_scarf", "is_homologically_monotonic",
                 "is_rigid", "is_nearly_hm", "is_betti_linear", "is_lattice_linear",
                 "lattice_linear_greedy", "analyse_rlm"],
    "cli": ["main"],
}

# Sizes summed per span name: counter name and f(args, result).
SIZES = {
    "linalg.rref": ("linalg.rref.cells", lambda args, res: args[0].nrows * args[0].ncols),
    "vcomplex.complex_of_facets": ("vcomplex.faces", lambda args, res: res.total_dim()),
    "lattice.from_ideal": ("lattice.elements", lambda args, res: len(res.elements)),
}


def span_name(module, qualname):
    """`linalg.rref` for Matrix.rref: the module plus the function's own name."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def resolve_targets():
    """[(span name, owner, attribute, raw attribute)] for every target, unpatched."""
    out = []
    for module, names in TARGETS.items():
        mod = sys.modules[f"monres.{module}"]
        for qualname in names:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                out.append((span_name(module, qualname), owner, attr, owner.__dict__[attr]))
            else:
                out.append((span_name(module, qualname), mod, qualname, getattr(mod, qualname)))
    return out


def bindings(targets):
    """Every (owner, attribute, raw original) a tracer patches for these targets.

    Methods live on their class.  A module function is also found under
    any name in any loaded `monres` module that holds the same object.
    """
    out = []
    modules = [m for name, m in sys.modules.items() if name.startswith("monres") and m is not None]
    for name, owner, attr, raw in targets:
        if isinstance(owner, type):
            out.append((name, owner, attr, raw))
            continue
        for mod in modules:
            for key, value in vars(mod).items():
                if value is raw:
                    out.append((name, mod, key, raw))
    return out


class Tracer:
    """Collects spans in memory while installed; `ideal` tags new spans."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.spans = []      # (id, parent id or -1, ideal, name index, start, end, self, raised)
        self.counters = {}
        self.ideal = -1
        self._stack = []     # [span id, child time] of the open spans
        self._next_id = 0
        self._patched = []   # (owner, attribute, raw original)

    def _index(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, name, fn):
        idx = self._index(name)
        size = SIZES.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            raised = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, self.ideal, idx, start, end, end - start - frame[1], raised))
            if size is not None:
                self.counters[size[0]] = self.counters.get(size[0], 0) + size[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, raw in bindings(resolve_targets()):
            if id(raw) not in wrappers:
                if isinstance(raw, staticmethod):
                    wrappers[id(raw)] = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrappers[id(raw)] = self._wrap(name, raw)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrappers[id(raw)])

    def uninstall(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Spans as gzip'd lines: id parent ideal name start end self raised."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# id parent ideal name start_s end_s self_s raised\n")
            for sid, parent, ideal, idx, start, end, self_s, raised in self.spans:
                fh.write(f"{sid} {parent} {ideal} {self.names[idx]} {start:.9f} {end:.9f} "
                         f"{self_s:.9f} {int(raised)}\n")


def untraced(original):
    """True iff every binding in `original` (from `bindings`) holds the library's own object."""
    return all(vars(owner).get(attr) is raw for _, owner, attr, raw in original)
