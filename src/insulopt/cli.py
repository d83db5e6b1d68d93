"""Command-line interface.

Every subcommand reads one JSON configuration (``--config``), applies
repeatable ``--set key=value`` overrides, writes CSV/VTK artifacts into the
configured output directory, and prints energies to stdout in the fixed
format ``TERM=<name> VALUE=<17-sig-digit float>``.

Exit codes: 0 success, 1 configuration, 2 geometry/meshing, 3 solver.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import apply_overrides, parse_config, validate_config
from .convergence import gamma_sweep, lebesgue_limit_check
from .errors import ConfigError, GeometryError, SchemaError, SolverError
from .fem import ProblemData
from .geometry import (
    InsulationDistribution,
    PolygonalDomain,
    _component_locate,
    _lumped_weights,
    build_transversal_field,
)
from .layer_solver import solve_eps
from .meshing import extrude_layer, triangulate_bulk
from .reduced_solver import solve_reduced
from .robin_solver import solve_limit
from .thickness import profile_table, reconstruct_distribution, to_normal_thickness
from .vtk_io import write_boundary_vtk, write_csv, write_vtk


def _print_term(name, value):
    print(f"TERM={name} VALUE={value:.17g}")


def _print_report(prefix, report):
    _print_term(prefix, report.total)
    for key, val in report.terms.items():
        _print_term(f"{prefix}_{key.upper()}", val)


def _load_config(args):
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()
    if args.set:
        raw = json.loads(text)
        raw = apply_overrides(raw, args.set)
        return validate_config(raw)
    return parse_config(text)


def _build_problem(cfg, need_mesh=True):
    domain = PolygonalDomain(cfg.domain.vertices, cfg.domain.facet_labels)
    field = build_transversal_field(domain, cfg.field_mode)
    mesh = triangulate_bulk(domain, cfg.solver.h) if need_mesh else None
    f_spec = cfg.f
    if isinstance(f_spec, str):
        f_spec = np.loadtxt(f_spec, delimiter=",", ndmin=1)
    data = ProblemData(f=f_spec, g=cfg.g, u_D=cfg.u_D)
    return domain, field, mesh, data


def _distribution(cfg, field):
    spec = cfg.distribution
    if spec.kind == "constant":
        return InsulationDistribution.constant(field, spec.value,
                                               d_min=spec.d_min)
    if spec.kind == "nodal_csv":
        table = np.loadtxt(spec.path, delimiter=",", ndmin=2)
        return InsulationDistribution.from_arc_samples(
            field, table[:, 0], table[:, 1], d_min=spec.d_min)
    raise SchemaError("distribution.type",
                      "this command needs an explicit thickness profile")


def _out(cfg, name):
    return os.path.join(cfg.output.directory, name)


def cmd_mesh(cfg):
    domain, field, mesh, _ = _build_problem(cfg)
    _print_term("MESH_NODES", float(len(mesh.nodes)))
    _print_term("MESH_TRIANGLES", float(len(mesh.tris)))
    if cfg.output.vtk:
        write_vtk(_out(cfg, "mesh.vtk"), mesh)
    if cfg.solver.epsilon_list:
        dist = _distribution(cfg, field)
        glued = extrude_layer(mesh, field, dist, cfg.solver.epsilon_list[0],
                              cfg.solver.n_t)
        _print_term("GLUED_NODES", float(len(glued.nodes)))
        _print_term("GLUED_TRIANGLES", float(len(glued.tris)))
        if cfg.output.vtk:
            write_vtk(_out(cfg, "mesh_glued.vtk"), glued)
    return 0


def cmd_solve_limit(cfg):
    domain, field, mesh, data = _build_problem(cfg)
    dist = _distribution(cfg, field)
    u, report = solve_limit(mesh, field, dist, data, tol=cfg.solver.tol,
                            max_iter=cfg.solver.max_iter)
    _print_report("E_LIMIT", report)
    if cfg.output.vtk:
        write_vtk(_out(cfg, "limit.vtk"), mesh, point_data={"u": u})
    return 0


def cmd_solve_eps(cfg):
    if not cfg.solver.epsilon_list:
        raise SchemaError("solver.epsilon_list", "required for solve-eps")
    domain, field, mesh, data = _build_problem(cfg)
    dist = _distribution(cfg, field)
    for i, eps in enumerate(cfg.solver.epsilon_list):
        glued = extrude_layer(mesh, field, dist, eps, cfg.solver.n_t)
        u, report = solve_eps(glued, eps, data, tol=cfg.solver.tol,
                              max_iter=cfg.solver.max_iter)
        _print_term("EPSILON", eps)
        _print_report("E_EPS", report)
        _print_term("EQUICOERCIVITY", report.diagnostics["equicoercivity"])
        if cfg.output.vtk:
            write_vtk(_out(cfg, f"eps_{i}.vtk"), glued, point_data={"u": u})
    return 0


def _reduced_solution(cfg, command):
    """Solve the reduced problem, print its energies and write its VTK."""
    if cfg.mass is None:
        raise SchemaError("mass", f"required for {command}")
    domain, field, mesh, data = _build_problem(cfg)
    u, report = solve_reduced(mesh, cfg.mass, data, method=cfg.solver.method,
                              tol=cfg.solver.tol, max_iter=cfg.solver.max_iter)
    _print_report("E_REDUCED", report)
    if cfg.output.vtk:
        write_vtk(_out(cfg, "reduced.vtk"), mesh, point_data={"u": u})
    return u, mesh, field


def cmd_solve_reduced(cfg):
    _reduced_solution(cfg, "solve-reduced")
    return 0


def cmd_reconstruct(cfg):
    u, mesh, field = _reduced_solution(cfg, "reconstruct")
    dist = reconstruct_distribution(mesh, u, cfg.mass, field,
                                    d_min_warn=cfg.distribution.d_min or None)
    rows = [(s, d, dt) for s, d, dt in profile_table(dist)]
    tilde_mass = sum(  # lumped normal-direction mass, equals the k-mass
        float(np.sum(w * dt))
        for w, dt in _component_weight_tilde(dist))
    csv_rows = rows + [("MASS", dist.mass, tilde_mass)]
    write_csv(_out(cfg, "reconstruct.csv"), "s,d,d_normal", csv_rows)
    _print_term("MASS", dist.mass)
    if cfg.output.vtk:
        pts, segs, fields = _profile_geometry(dist)
        write_boundary_vtk(_out(cfg, "profile.vtk"), pts, segs, fields)
    return 0


def _component_weight_tilde(dist):
    tilde = to_normal_thickness(dist)
    for ci, comp in enumerate(dist.domain.insulated_components):
        w = _lumped_weights(dist.component_coords[ci], comp.cyclic, comp.length)
        yield w, tilde[ci]


def _profile_geometry(dist):
    domain = dist.domain
    pts, segs = [], []
    for ci, comp in enumerate(domain.insulated_components):
        start = sum(map(len, pts))
        coords = dist.component_coords[ci]
        pts.append(domain.facet_point(*_component_locate(domain, comp, coords)))
        segs.extend((start + i, start + i + 1) for i in range(len(coords) - 1))
        if comp.cyclic:
            segs.append((start + len(coords) - 1, start))
    return np.concatenate(pts), segs, {
        "d": np.concatenate(dist.component_values),
        "d_normal": np.concatenate(to_normal_thickness(dist))}


def cmd_gamma_sweep(cfg):
    if not cfg.solver.epsilon_list:
        raise SchemaError("solver.epsilon_list", "required for gamma-sweep")
    domain, field, _, data = _build_problem(cfg, need_mesh=False)
    dist = _distribution(cfg, field)
    report = gamma_sweep(domain, field, dist, data, cfg.solver.epsilon_list,
                         h=cfg.solver.h, n_t=cfg.solver.n_t,
                         tol=cfg.solver.tol, keep_fields=cfg.output.vtk)
    write_csv(_out(cfg, "gamma.csv"), *report.csv_table())
    for i, (eps, glued, u_eps) in enumerate(report.fields):
        write_vtk(_out(cfg, f"gamma_eps_{i}.vtk"), glued,
                  point_data={"u": u_eps})
    _print_term("E_LIMIT", report.energy_limit)
    _print_term("WEIGHTED_MASS", report.weighted_mass)
    last = report.rows[-1]
    _print_term("FINAL_GAP_SOLUTION", last.gap_solution)
    _print_term("FINAL_GAP_RECOVERY", last.gap_recovery)
    return 0


def cmd_check_lebesgue(cfg):
    if not cfg.solver.epsilon_list:
        raise SchemaError("solver.epsilon_list", "required for check-lebesgue")
    domain, field, _, data = _build_problem(cfg, need_mesh=False)
    dist = _distribution(cfg, field)
    rows = lebesgue_limit_check(None, None, dist, field,
                                cfg.solver.epsilon_list, p=1)
    write_csv(_out(cfg, "lebesgue.csv"), "eps,scaled_integral,limit,error",
              [tuple(map(float, r)) for r in rows])
    _print_term("LIMIT", rows[0][2])
    for eps, val, _, err in rows:
        _print_term("EPSILON", eps)
        _print_term("SCALED_INTEGRAL", val)
        _print_term("ERROR", err)
    return 0


COMMANDS = {
    "mesh": cmd_mesh,
    "solve-limit": cmd_solve_limit,
    "solve-eps": cmd_solve_eps,
    "solve-reduced": cmd_solve_reduced,
    "reconstruct": cmd_reconstruct,
    "gamma-sweep": cmd_gamma_sweep,
    "check-lebesgue": cmd_check_lebesgue,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="insulopt",
        description="Optimal boundary insulation on polygons")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
