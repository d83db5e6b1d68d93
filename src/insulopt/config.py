"""Run configuration: strict JSON schema with dataclass carriers.

Unknown keys and non-finite numbers (JSON's NaN and Infinity) are rejected
with the dotted path of the offender; a re-parsed serialization reproduces
the configuration exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

from .errors import SchemaError

DEFAULT_TOL = 1e-10
DEFAULT_NT = 4


@dataclass
class DomainSpec:
    vertices: list
    facet_labels: list


@dataclass
class DistributionSpec:
    kind: str                 # constant | nodal_csv | reconstruct
    value: float | None = None
    path: str | None = None
    d_min: float = 0.0


@dataclass
class SolverSpec:
    h: float
    n_t: int = DEFAULT_NT
    epsilon_list: list = dc_field(default_factory=list)
    tol: float = DEFAULT_TOL
    max_iter: int | None = None
    method: str = "proxgrad"


@dataclass
class OutputSpec:
    directory: str = "out"
    vtk: bool = True


@dataclass
class RunConfig:
    domain: DomainSpec
    field_mode: str
    distribution: DistributionSpec
    mass: float | None
    f: float | str
    g: float | dict
    u_D: float | dict
    solver: SolverSpec
    output: OutputSpec

    def to_dict(self):
        dom = {"vertices": [list(v) for v in self.domain.vertices],
               "facets": [{"vertices": [i, (i + 1) % len(self.domain.vertices)],
                           "label": lab}
                          for i, lab in enumerate(self.domain.facet_labels)]}
        dist = {"type": self.distribution.kind}
        if self.distribution.value is not None:
            dist["value"] = self.distribution.value
        if self.distribution.path is not None:
            dist["path"] = self.distribution.path
        if self.distribution.d_min:
            dist["d_min"] = self.distribution.d_min
        out = {
            "domain": dom,
            "field_mode": self.field_mode,
            "distribution": dist,
            "data": {"f": self.f, "g": _dict_keys_str(self.g),
                     "u_D": _dict_keys_str(self.u_D)},
            "solver": {"h": self.solver.h, "n_t": self.solver.n_t,
                       "epsilon_list": list(self.solver.epsilon_list),
                       "tol": self.solver.tol,
                       "max_iter": self.solver.max_iter,
                       "method": self.solver.method},
            "output": {"directory": self.output.directory,
                       "vtk": self.output.vtk},
        }
        if self.mass is not None:
            out["mass"] = self.mass
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _dict_keys_str(spec):
    if isinstance(spec, dict):
        return {str(k): v for k, v in spec.items()}
    return spec


def _expect(cond, path, msg):
    if not cond:
        raise SchemaError(path, msg)


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")


def _integer(obj):
    # JSON true and false parse to bool, which is an int subclass
    return isinstance(obj, int) and not isinstance(obj, bool)


def _number(obj, path, positive=False):
    _expect(isinstance(obj, (int, float)) and not isinstance(obj, bool),
            path, "expected a number")
    _expect(math.isfinite(obj), path, "must be finite")
    if positive:
        _expect(obj > 0, path, "must be positive")
    return float(obj)


def _per_facet(obj, path):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            try:
                fid = int(k)
            except ValueError:
                raise SchemaError(f"{path}.{k}", "facet keys must be integers")
            out[fid] = _number(v, f"{path}.{k}")
        return out
    return _number(obj, path)


def parse_config(text):
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<document>", f"invalid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw):
    _expect(isinstance(raw, dict), "<document>", "top level must be an object")
    _check_keys(raw, {"domain", "field_mode", "distribution", "mass", "data",
                      "solver", "output"}, "")

    dom_raw = raw.get("domain")
    _expect(isinstance(dom_raw, dict), "domain", "required object")
    _check_keys(dom_raw, {"vertices", "facets"}, "domain")
    verts = dom_raw.get("vertices")
    _expect(isinstance(verts, list) and len(verts) >= 3, "domain.vertices",
            "need at least three [x, y] pairs")
    for i, v in enumerate(verts):
        _expect(isinstance(v, list) and len(v) == 2, f"domain.vertices[{i}]",
                "expected [x, y]")
        _number(v[0], f"domain.vertices[{i}][0]")
        _number(v[1], f"domain.vertices[{i}][1]")
    facets = dom_raw.get("facets")
    _expect(isinstance(facets, list) and len(facets) == len(verts),
            "domain.facets", "need one facet per polygon side")
    labels = [None] * len(verts)
    for i, f in enumerate(facets):
        _expect(isinstance(f, dict), f"domain.facets[{i}]", "expected object")
        _check_keys(f, {"vertices", "label"}, f"domain.facets[{i}]")
        fv = f.get("vertices")
        _expect(isinstance(fv, list) and len(fv) == 2,
                f"domain.facets[{i}].vertices", "expected [start, end]")
        _expect(fv[0] == i and fv[1] == (i + 1) % len(verts),
                f"domain.facets[{i}].vertices",
                "facets must traverse the polygon in vertex order")
        lab = f.get("label")
        _expect(lab in ("insulated", "dirichlet", "neumann"),
                f"domain.facets[{i}].label",
                "must be insulated | dirichlet | neumann")
        labels[i] = lab

    mode = raw.get("field_mode", "bisector")
    _expect(mode in ("bisector", "facet_normal"), "field_mode",
            "must be bisector | facet_normal")

    dist_raw = raw.get("distribution", {"type": "constant", "value": 1.0})
    _expect(isinstance(dist_raw, dict), "distribution", "expected object")
    _check_keys(dist_raw, {"type", "value", "path", "d_min"}, "distribution")
    kind = dist_raw.get("type")
    _expect(kind in ("constant", "nodal_csv", "reconstruct"),
            "distribution.type", "must be constant | nodal_csv | reconstruct")
    value = path = None
    if kind == "constant":
        value = _number(dist_raw.get("value", 1.0), "distribution.value")
        _expect(value >= 0, "distribution.value", "must be non-negative")
    elif kind == "nodal_csv":
        path = dist_raw.get("path")
        _expect(isinstance(path, str), "distribution.path", "required string")
    d_min = _number(dist_raw.get("d_min", 0.0), "distribution.d_min")

    mass = raw.get("mass")
    if mass is not None:
        mass = _number(mass, "mass", positive=True)

    data_raw = raw.get("data", {})
    _expect(isinstance(data_raw, dict), "data", "expected object")
    _check_keys(data_raw, {"f", "g", "u_D"}, "data")
    f_spec = data_raw.get("f", 0.0)
    if not isinstance(f_spec, str):
        f_spec = _number(f_spec, "data.f")
    g_spec = _per_facet(data_raw.get("g", 0.0), "data.g")
    ud_spec = _per_facet(data_raw.get("u_D", 0.0), "data.u_D")

    solver_raw = raw.get("solver")
    _expect(isinstance(solver_raw, dict), "solver", "required object")
    _check_keys(solver_raw, {"h", "n_t", "epsilon_list", "tol", "max_iter",
                             "method"}, "solver")
    h = _number(solver_raw.get("h"), "solver.h", positive=True)
    n_t = solver_raw.get("n_t", DEFAULT_NT)
    _expect(_integer(n_t) and n_t >= 1, "solver.n_t",
            "must be an integer >= 1")
    eps_list = solver_raw.get("epsilon_list", [])
    _expect(isinstance(eps_list, list), "solver.epsilon_list", "expected list")
    eps_list = [_number(e, f"solver.epsilon_list[{i}]", positive=True)
                for i, e in enumerate(eps_list)]
    _expect(all(a > b for a, b in zip(eps_list, eps_list[1:])),
            "solver.epsilon_list", "must be strictly decreasing")
    tol = _number(solver_raw.get("tol", DEFAULT_TOL), "solver.tol",
                  positive=True)
    max_iter = solver_raw.get("max_iter")
    if max_iter is not None:
        _expect(_integer(max_iter) and max_iter > 0, "solver.max_iter",
                "must be a positive integer")
    method = solver_raw.get("method", "proxgrad")
    _expect(method in ("proxgrad", "alternating"), "solver.method",
            "must be proxgrad | alternating")

    out_raw = raw.get("output", {})
    _expect(isinstance(out_raw, dict), "output", "expected object")
    _check_keys(out_raw, {"directory", "vtk"}, "output")
    directory = out_raw.get("directory", "out")
    _expect(isinstance(directory, str), "output.directory", "expected string")
    vtk = out_raw.get("vtk", True)
    _expect(isinstance(vtk, bool), "output.vtk", "expected boolean")

    return RunConfig(
        domain=DomainSpec(vertices=[tuple(map(float, v)) for v in verts],
                          facet_labels=labels),
        field_mode=mode,
        distribution=DistributionSpec(kind=kind, value=value, path=path,
                                      d_min=d_min),
        mass=mass,
        f=f_spec,
        g=g_spec,
        u_D=ud_spec,
        solver=SolverSpec(h=h, n_t=n_t, epsilon_list=eps_list, tol=tol,
                          max_iter=max_iter, method=method),
        output=OutputSpec(directory=directory, vtk=vtk),
    )


def apply_overrides(raw, overrides):
    """Apply dotted key=value overrides to the raw configuration dict."""
    for item in overrides:
        if "=" not in item:
            raise SchemaError(item, "override must look like key=value")
        key, _, val = item.partition("=")
        try:
            value = json.loads(val)
        except json.JSONDecodeError:
            value = val
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(target.get(part), dict):
                target[part] = {}
            target = target[part]
        target[parts[-1]] = value
    return raw
