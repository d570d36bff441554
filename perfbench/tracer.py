"""Spans around calls into vacuumkit's layers, recorded from outside.

``Tracer.install`` replaces public functions on the library's modules and
classes by wrappers that record one span each: layer, start, end, parent
span, and counts taken from the arguments or the result.  The
spans stay in memory in flat arrays and are written out once at the end.
``uninstall`` puts the originals back, so untraced calls run the
library's own code.  A function that a later version no longer has is
skipped, and the metrics of its layer are left out.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

QUADRATURE, MIRRORS, CASIMIR, SWEEP, CLI_MAIN, CLI_CALL, MOTIONAL, PHOTON_NOISE = range(8)
LAYER_NAMES = ("quadrature", "mirrors", "casimir", "eta_sweep", "cli.main", "cli.library", "motional",
               "photon_noise")


def _nodes_imaginary(args, out):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size), 0, 0


def _nodes_static(args, out):
    return int(np.size(args[1])), 0, 0


def _quadrature_counts(args, out):
    return out.evaluations, out.panels, int(not out.converged)


def _sweep_points(args, out):
    return len(out.lengths), 0, 0


class Tracer:
    def __init__(self):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.count_a = array("q")
        self.count_b = array("q")
        self.flag = array("b")
        self._stack = [-1]
        self._saved = []
        self.present = set()

    # --- recording ---------------------------------------------------------

    def _wrap(self, fn, layer, counts=None):
        def traced(*args, **kwargs):
            idx = len(self.layer)
            self.layer.append(layer)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.count_a.append(0)
            self.count_b.append(0)
            self.flag.append(0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counts is not None:
                self.count_a[idx], self.count_b[idx], self.flag[idx] = counts(args, out)
            return out

        return traced

    def _patch(self, owner, name, layer, counts=None):
        original = owner.__dict__.get(name)
        if original is None:
            return
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, layer, counts))
        else:
            wrapped = self._wrap(original, layer, counts)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapped)
        self.present.add(layer)

    def install(self) -> None:
        from vacuumkit import casimir, cli, mirrors, motional

        self._patch(casimir, "adaptive_gauss_legendre", QUADRATURE, _quadrature_counts)
        self._patch(mirrors.CavityReflection, "amplitude_imaginary", MIRRORS, _nodes_imaginary)
        self._patch(mirrors.CavityReflection, "amplitude_static", MIRRORS, _nodes_static)
        self._patch(casimir, "eta_sweep", SWEEP, _sweep_points)
        for name in ("thermal_force", "sphere_plane_force"):
            self._patch(casimir, name, CASIMIR)
        # every library function the CLI module imported, as a child of main
        layers = {"vacuumkit.motional": MOTIONAL, "vacuumkit.photon_noise": PHOTON_NOISE}
        for name, value in list(vars(cli).items()):
            module = getattr(value, "__module__", "")
            if callable(value) and not isinstance(value, type) and module.startswith("vacuumkit.") \
                    and module != "vacuumkit.cli":
                self._patch(cli, name, layers.get(module, CLI_CALL))
        self._patch(motional.Trajectory, "from_file", MOTIONAL)
        self._patch(cli, "main", CLI_MAIN)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def set_last_count(self, layer: int, value: int) -> None:
        """Attach a count measured by the caller to the newest span of a layer."""
        lay = np.frombuffer(self.layer, dtype=np.int8)
        idx = int(np.flatnonzero(lay == layer)[-1])
        self.count_a[idx] = value

    # --- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "count_a": np.frombuffer(self.count_a, dtype=np.int64).copy(),
            "count_b": np.frombuffer(self.count_b, dtype=np.int64).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, layer_names=np.array(LAYER_NAMES), **self.arrays())

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans; a layer whose functions
        were not found reports nothing."""
        s = self.arrays()
        layer, parent = s["layer"], s["parent"]
        dur = s["end"] - s["start"]
        child_time = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        # nearest quadrature ancestor of each span (parents precede children)
        is_quad = layer == QUADRATURE
        quad_list, sweep_list = is_quad.tolist(), (layer == SWEEP).tolist()
        quad_anc, sweep_anc = [-1] * layer.size, [-1] * layer.size
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                quad_anc[i] = p if quad_list[p] else quad_anc[p]
                sweep_anc[i] = p if sweep_list[p] else sweep_anc[p]
        quad_anc, sweep_anc = np.array(quad_anc, dtype=np.int64), np.array(sweep_anc, dtype=np.int64)

        out = {}
        if MIRRORS in self.present:
            m = layer == MIRRORS
            calls = int(m.sum())
            out["mirrors.calls"] = calls
            out["mirrors.nodes_per_call"] = float(s["count_a"][m].sum() / calls) if calls else 0.0
            out["mirrors.self_s"] = float(self_time[m].sum())
        if QUADRATURE in self.present:
            q = is_quad
            calls = int(q.sum())
            panels = int(s["count_b"][q].sum())
            evaluations = int(s["count_a"][q].sum())
            top = q & (quad_anc < 0)
            nested_count = np.bincount(quad_anc[q & (quad_anc >= 0)], minlength=layer.size)
            solves = top & (nested_count > 0)
            terms = top & (nested_count == 0)
            n_solves = int(solves.sum())
            out["quadrature.calls"] = calls
            out["quadrature.evaluations"] = evaluations
            out["quadrature.panels"] = panels
            out["quadrature.evals_per_panel"] = evaluations / panels if panels else 0.0
            out["quadrature.self_s"] = float(self_time[q].sum())
            out["quadrature.unconverged"] = int(s["flag"][q].sum())
            out["casimir.zero_t_solves"] = n_solves
            out["casimir.inner_calls_per_solve"] = (
                float(nested_count[solves].sum() / n_solves) if n_solves else 0.0)
            out["casimir.zero_t_s"] = float(dur[solves].sum())
            out["casimir.matsubara_terms"] = int(terms.sum())
            out["casimir.matsubara_s"] = float(dur[terms].sum())
            if SWEEP in self.present:
                points = int(s["count_a"][layer == SWEEP].sum())
                in_sweep = int((solves & (sweep_anc >= 0)).sum())
                out["casimir.zero_t_solves_per_point"] = in_sweep / points if points else 0.0
        if CLI_MAIN in self.present:
            main = layer == CLI_MAIN
            out["cli.emit_s"] = float(self_time[main].sum())
            out["cli.output_bytes"] = int(s["count_a"][main].sum())
        for lay, name in ((MOTIONAL, "motional.s"), (PHOTON_NOISE, "photon_noise.s")):
            if lay in self.present:
                # outermost spans of the layer only, so nested calls count once
                outer = (layer == lay) & ~np.isin(parent, np.flatnonzero(layer == lay))
                out[name] = float(dur[outer].sum())
        return out
