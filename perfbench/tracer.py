"""External span tracer for hqclab: wraps the package's layer functions from
outside, records nested spans and exact counters, and turns them into the
per-layer metrics of BENCHMARK.json.

Nothing in ``src/`` is touched.  A target is patched on its defining module or
class *and* on every ``hqclab`` module (or package namespace) that imported it
by name, because ``from .network import compile_system`` copies the binding:
patching only ``hqclab.network`` would miss the calls made through
``hqclab.hqc.compile_system``.

Spans aggregate as they close (one stack, so the studies run with
``--threads 1``).  For each layer key the tracer keeps

* ``calls`` and ``s``: entries into the layer and their inclusive time, counting
  only the outermost span when a layer calls itself (``BondSystem.gradient`` ->
  ``bond_forces``);
* ``self_s``: time inside the layer minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

MARK = "_perfbench_key"


# ------------------------------------------------------------------ counters


def _bonds(counts, args, result):
    counts["potential.law.bonds"] += len(args[1])  # (self, gaps, rvec)


def _factor_dof(counts, args, result):
    dof = args[1].shape[0]  # (self, H, d)
    counts["network.factor.dof"] += dof
    counts["network.factor.dof_max"] = max(counts["network.factor.dof_max"], dof)


def _newton_iters(counts, args, result):
    counts["network.newton.iters"] += result.iterations


def _placement(counts, args, result):
    counts["hqc.place.domains"] += len(result)
    nbytes = sum(dom.parent_cells.nbytes + dom.parent_sites.nbytes for dom in result)
    counts["hqc.place.index_mb"] += nbytes / 2**20


def _outer_iters(counts, args, result):
    counts["hqc.solve.outer_iters"] += result.iterations


#: (layer key, module under hqclab, attribute path, counter hook or None)
TARGETS = [
    *[("potential.law", "potential", f"{cls}.{fn}", _bonds)
      for cls in ("SpringLaw", "LennardJonesLaw") for fn in ("energy", "grad", "hess")],
    *[("network.kernel", "network", f"BondSystem.{fn}", None)
      for fn in ("gaps", "energy", "bond_forces", "bond_stiffness", "gradient", "stress",
                 "affine_force", "hessian")],
    ("network.compile", "network", "compile_system", None),
    ("network.factor", "network", "GaugeFixedOperator.__init__", _factor_dof),
    ("network.lsolve", "network", "GaugeFixedOperator.solve", None),
    ("network.newton", "network", "newton_zero_mean", _newton_iters),
    ("atomistic.solve", "atomistic", "solve_equilibrium", None),
    ("atomistic.eigen", "atomistic", "slowest_eigenmode", None),
    ("atomistic.energy", "atomistic", "total_energy", None),
    ("fem.mesh", "fem", "build_mesh", None),
    ("fem.load", "fem", "load_from_lattice", None),
    ("fem.error", "fem", "lattice_error", None),
    ("lattice", "lattice", "discrete_norms", None),
    ("lattice", "lattice", "Multilattice.site_positions", None),
    ("lattice", "lattice", "Multilattice.site_cells", None),
    ("homog.phi0", "homog", "HomogenizedDensity.phi0", None),
    ("homog.cell", "homog", "solve_cell_problem", None),
    ("hqc.init", "hqc", "HQCOperator.__init__", None),
    ("hqc.place", "hqc", "place_sampling_domains", _placement),
    ("hqc.sensitivity", "hqc", "micro_sensitivity", None),
    ("hqc.tangent", "hqc", "condensed_tangent", None),
    ("hqc.energy", "hqc", "HQCOperator.energy", None),
    ("hqc.gradient", "hqc", "HQCOperator.gradient", None),
    ("hqc.hessian", "hqc", "HQCOperator.hessian", None),
    ("hqc.hessian", "hqc", "HQCOperator.element_tangents", None),
    ("hqc.solve", "hqc", "HQCOperator.solve", _outer_iters),
    ("hqc.micro_solve", "hqc", "micro_solve", None),
    ("hqc.reconstruct", "hqc", "reconstruct", None),
    ("mqc.shift", "mqc", "solve_shift_vectors", None),
    ("mqc.report", "mqc", "equivalence_report", None),
    ("dynamics.verlet", "dynamics", "verlet_step", None),
    ("dynamics.atomistic", "dynamics", "run_atomistic_dynamics", None),
    ("dynamics.hqc", "dynamics", "run_hqc_dynamics", None),
    ("dynamics.error", "dynamics", "trajectory_error", None),
]

#: per-layer metric -> unit; the order is the order of BENCHMARK.json
METRICS = {
    "potential.law.calls": "count", "potential.law.self_s": "s",
    "potential.law.bonds": "count", "potential.law.ns_per_bond": "ns",
    "network.kernel.calls": "count", "network.kernel.self_s": "s",
    "network.compile.calls": "count", "network.compile.s": "s",
    "network.factor.calls": "count", "network.factor.s": "s",
    "network.factor.dof": "count", "network.factor.dof_max": "count",
    "network.lsolve.calls": "count", "network.lsolve.s": "s",
    "network.newton.calls": "count", "network.newton.s": "s", "network.newton.iters": "count",
    "atomistic.solve.s": "s", "atomistic.eigen.s": "s",
    "atomistic.energy.calls": "count", "atomistic.energy.s": "s",
    "fem.mesh.s": "s", "fem.load.s": "s", "fem.error.s": "s",
    "lattice.calls": "count", "lattice.s": "s",
    "homog.phi0.calls": "count", "homog.cell.calls": "count", "homog.cell.s": "s",
    "homog.cache_hit_ratio": "1",
    "hqc.init.s": "s", "hqc.place.s": "s", "hqc.place.domains": "count",
    "hqc.place.index_mb": "MiB",
    "hqc.sensitivity.calls": "count", "hqc.sensitivity.s": "s",
    "hqc.tangent.calls": "count", "hqc.tangent.s": "s",
    "hqc.energy.self_s": "s", "hqc.gradient.self_s": "s", "hqc.hessian.self_s": "s",
    "hqc.solve.calls": "count", "hqc.solve.outer_iters": "count",
    "hqc.micro_solve.calls": "count", "hqc.micro_solve.s": "s",
    "hqc.reconstruct.calls": "count", "hqc.reconstruct.s": "s",
    "mqc.shift.calls": "count", "mqc.shift.self_s": "s", "mqc.report.s": "s",
    "dynamics.verlet.calls": "count", "dynamics.force_calls_per_step": "count",
    "dynamics.atomistic.s": "s", "dynamics.hqc.s": "s", "dynamics.error.s": "s",
    "experiments.self_s": "s", "experiments.span_coverage": "1",
    "experiments.cpu_util": "1", "trace.overhead": "1",
}

#: metrics that repeat exactly from run to run of one seed
EXACT = [name for name, unit in METRICS.items() if unit in ("count", "MiB")] + [
    "homog.cache_hit_ratio"]


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Patch the hqclab targets on ``install()``; restore them on ``uninstall()``."""

    def __init__(self) -> None:
        self.stack: list[list] = []                   # open spans: [key, child time]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.edges: Counter = Counter()               # (parent key, key) -> entries
        self.counts: Counter = Counter()
        self.top_s = 0.0                              # time in spans without a parent
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, hook):
        stack, stats, edges, counts = self.stack, self.stats, self.edges, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st = stats[key]
                st[2] += dt - frame[1]
                if parent is None:
                    self.top_s += dt
                else:
                    parent[1] += dt
                if parent is None or parent[0] != key:
                    st[0] += 1
                    st[1] += dt
                    edges[(parent[0] if parent else None, key)] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        setattr(span, MARK, key)
        return span

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = hqclab_modules()
        for key, module, path, hook in TARGETS:
            owner, attr = _resolve(sys.modules[f"hqclab.{module}"], path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(key, original, hook)
            self._set(owner, attr, wrapper)
            if isinstance(owner, type):
                continue  # classes are shared objects: one patch covers every importer
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced study; ``run_s`` is its wall time.

        ``experiments.cpu_util`` and ``trace.overhead`` need untraced studies,
        so the caller fills them in.
        """
        out: dict[str, float] = {}
        for key, (calls, incl, self_s) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = incl
            out[f"{key}.self_s"] = self_s
        out.update(self.counts)
        bonds = out.get("potential.law.bonds", 0)
        out["potential.law.ns_per_bond"] = 1e9 * out.get("potential.law.self_s", 0.0) / bonds if bonds else 0.0
        phi0_calls = out.get("homog.phi0.calls", 0)
        out["homog.cache_hit_ratio"] = 1.0 - out.get("homog.cell.calls", 0) / phi0_calls if phi0_calls else 0.0
        steps = out.get("dynamics.verlet.calls", 0)
        forces = self.edges[("dynamics.verlet", "network.kernel")] + self.edges[("dynamics.verlet", "hqc.gradient")]
        out["dynamics.force_calls_per_step"] = forces / steps if steps else 0.0
        out["experiments.self_s"] = run_s - self.top_s
        out["experiments.span_coverage"] = self.top_s / run_s
        return {name: out.get(name, 0) for name in METRICS if name not in ("experiments.cpu_util", "trace.overhead")}


def hqclab_modules() -> list:
    return [mod for name, mod in sys.modules.items() if name == "hqclab" or name.startswith("hqclab.")]


def wrapped_bindings() -> list[str]:
    """Names of every hqclab binding that currently points at a span wrapper."""
    found = []
    for mod in hqclab_modules():
        for name, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{name}.{attr}"
                          for attr, member in vars(value).items() if hasattr(member, MARK)]
    return sorted(found)
