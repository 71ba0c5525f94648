"""Layer tracing for the benchmark, installed from outside the library.

Every traced function is replaced, in each adskg module that binds it
(``from .x import y`` makes a second binding), by a wrapper that records a
span: its name, start, end and parent.  Spans nest on one stack, so a
span's self time is its duration minus the time its child spans cover, and
the self times of all spans in a job plus the job's own root self time add
up to the job's wall time.  Aggregates (calls, self and inclusive seconds)
are kept per span name; full span records are kept only when asked for.
"""

from __future__ import annotations

import importlib
import time

# (layer, group, functions).  A function name "Class.method" patches the
# class attribute.  Groups named "misc" only feed the layer's self time.
TRACED = [
    ("specfun", "hyp2f1", ["hyp2f1"]),
    ("specfun", "jacobi_p", ["jacobi_p"]),
    ("specfun", "assoc_legendre", ["assoc_legendre"]),
    ("specfun", "misc", ["hyp2f1_dx", "jacobi_p_dx", "assoc_legendre_sin2_dx",
                         "gegenbauer_c", "spherical_bessel",
                         "spherical_bessel_dx"]),
    ("modes", "radial_eval_fd", ["radial_eval_fd"]),
    ("modes", "transfer_matrix", ["transfer_matrix"]),
    ("modes", "jacobi_radial_fd", ["jacobi_radial_fd"]),
    ("modes", "misc", ["radial_eval", "jacobi_radial", "wronskian",
                       "mode_eval"]),
    ("harmonics", "sph_harm", ["sph_harm"]),
    ("harmonics", "ylm", ["AngularGrid.ylm"]),
    ("harmonics", "project", ["AngularGrid.project"]),
    ("harmonics", "misc", ["sph_harm_sin2_dcos", "wigner_d"]),
    ("expansions", "sample", ["sample_slice", "sample_tube", "sample_rod",
                              "boundary_data_of", "rod_boundary_data_of"]),
    ("expansions", "invert", ["invert_slice", "invert_tube",
                              "invert_rod_interior", "boundary_reconstruct",
                              "rod_boundary_reconstruct"]),
    ("expansions", "synth", ["synth", "synth_dt", "synth_drho"]),
    ("expansions", "basis", ["s_to_c", "c_to_s", "slice_to_tube"]),
    ("expansions", "io", ["save_rep", "load_rep"]),
    ("expansions", "misc", ["taylor_coeffs", "twisted_derivative"]),
    ("symplectic", "quadrature", ["omega_slice_quadrature",
                                  "omega_tube_quadrature",
                                  "symplectic_potential"]),
    ("symplectic", "momentum", ["omega_slice_momentum",
                                "omega_tube_momentum"]),
    ("isometry", "extract_boost_coeffs", ["extract_boost_coeffs"]),
    ("isometry", "invariance_suite", ["invariance_suite"]),
    ("isometry", "misc", ["act_time_translation", "act_rotation",
                          "rotation_mixing", "boost_generator_apply",
                          "act_boost"]),
    ("geometry", "verify_lie_bracket", ["verify_lie_bracket"]),
    ("geometry", "kg_residual", ["kg_residual"]),
    ("geometry", "radial_measure", ["radial_measure"]),
    ("geometry", "misc", ["killing_apply", "boost_rho_coefficient"]),
    ("minkowski", "flat_limit_compare", ["flat_limit_compare"]),
    ("minkowski", "misc", ["killing_correspondence_errors",
                           "mink_synth_slice", "mink_synth_tube",
                           "mink_synth_tube_dr", "mink_omega_slice",
                           "mink_omega_tube_momentum",
                           "mink_omega_tube_quadrature", "mink_killing_apply"]),
    ("verify", "suite", ["run_suite"]),
    ("cli", "main", ["main"]),
]

MODULES = ["specfun", "harmonics", "geometry", "modes", "expansions",
           "symplectic", "isometry", "minkowski", "verify", "cli"]

# synthesis kernels: full-grid complex arrays each one accumulates per label
SYNTH_ARRAYS = {"sample_slice": 2, "sample_tube": 2, "boundary_data_of": 2,
                "rod_boundary_data_of": 1}
ROOT = "bench.job"


class Tracer:
    """Span aggregates for one process.  `install()` patches the library,
    `uninstall()` restores every binding it replaced."""

    def __init__(self, keep_spans: int = 0):
        self.keep_spans = keep_spans
        self.spans: list = []        # (name, start, end, parent index, job)
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.layer_of: dict[str, tuple[str, str]] = {ROOT: ("bench", "job")}
        self.seen_transfer: set = set()
        self._stack: list = []
        self._job = None
        self._patched: list = []     # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"adskg.{name}")
                for name in MODULES}
        owners = [importlib.import_module("adskg")] + list(mods.values())
        for layer, group, names in TRACED:
            mod = mods[layer]
            for fname in names:
                cls_name, _, attr = fname.rpartition(".")
                holder = getattr(mod, cls_name, None) if cls_name else mod
                orig = getattr(holder, attr, None)
                if orig is None:
                    continue  # renamed or removed: its metrics read 0
                span = f"{layer}.{fname}"
                self.layer_of[span] = (layer, group)
                wrapper = self._wrap(orig, span, group, attr)
                for owner in [holder] if cls_name else owners:
                    for name, val in list(vars(owner).items()):
                        if val is orig:
                            self._patch(owner, name, orig, wrapper)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr, orig, wrapper):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def bindings(self) -> list[str]:
        """Patched bindings as "module.name" (for the self-test)."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, _ in self._patched]

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, span, group, fname):
        clock = time.perf_counter
        stack, spans, keep = self._stack, self.spans, self.keep_spans
        is_suite = fname == "run_suite"
        is_transfer = fname == "transfer_matrix"
        n_arrays = SYNTH_ARRAYS.get(fname, 0)
        counts_labels = n_arrays or group == "invert"
        agg = self._agg(span)

        def wrapper(*args, **kwargs):
            if is_transfer:
                self._note_transfer(args, kwargs)
            frame = [0.0, -1]        # seconds covered by children, span index
            if keep and len(spans) < keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                name = f"verify.{args[0] if args else kwargs.get('name')}" \
                    if is_suite else span
                row = self._agg(name) if is_suite else agg
                row[0] += 1
                row[1] += dt - frame[0]
                row[2] += dt
                if frame[1] >= 0:
                    spans[frame[1]] = (name, t0, t1,
                                       stack[-1][1] if stack else -1, self._job)
            if counts_labels:
                self._note_kernel(args, out, n_arrays)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _agg(self, name) -> list:
        """[calls, self seconds, inclusive seconds] of one span name."""
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _note_transfer(self, args, kwargs):
        """Count calls whose (omega, l, params, policy) key this tracer has
        already seen: the best hit ratio any transfer cache could reach."""
        omega, l, params = args[:3] if len(args) >= 3 else (
            kwargs.get("omega"), kwargs.get("l"), kwargs.get("params"))
        policy = args[3] if len(args) > 3 else kwargs.get("policy")
        key = (omega, l, getattr(params, "d", None), getattr(params, "R", None),
               getattr(params, "m_sq", None), policy)
        if key in self.seen_transfer:
            self._count("modes.transfer_matrix.repeats", 1)
        else:
            self.seen_transfer.add(key)
            self._count("modes.transfer_matrix.new_keys", 1)

    def _note_kernel(self, args, out, n_arrays):
        rep = args[0] if args else None
        coeffs = getattr(out, "coeffs", None)
        if n_arrays:
            coeffs = getattr(rep, "coeffs", None)
            grid = getattr(out, "phi", None)
            if grid is None:
                grid = getattr(out, "phid_minus", None)
            if coeffs is not None and grid is not None:
                self._count("expansions.bytes_computed",
                            len(coeffs) * grid.size * 16 * n_arrays)
        if coeffs is not None:
            self._count("expansions.labels", len(coeffs))

    def _count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    # -- jobs -------------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run fn() under a root span; returns (result, wall seconds)."""
        self._job = job_id
        frame = [0.0, -1]
        if self.keep_spans and len(self.spans) < self.keep_spans:
            frame[1] = len(self.spans)
            self.spans.append(None)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            row = self._agg(ROOT)
            row[0] += 1
            row[1] += t1 - t0 - frame[0]
            row[2] += t1 - t0
            if frame[1] >= 0:
                self.spans[frame[1]] = (ROOT, t0, t1, -1, job_id)
            self._job = None
        return out, t1 - t0

    # -- summaries --------------------------------------------------------

    def table(self, column: int) -> dict:
        """Per span name: 0 calls, 1 self seconds, 2 inclusive seconds."""
        return {name: row[column] for name, row in self.stats.items()}

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, sec in self.table(1).items():
            layer = "verify" if name.startswith("verify.") \
                else self.layer_of[name][0]
            out[layer] = out.get(layer, 0.0) + sec
        return out

    def group_total(self, table: dict, layer: str, group: str) -> float:
        return sum(val for name, val in table.items()
                   if not name.startswith("verify.")
                   and self.layer_of[name] == (layer, group))
