import json
from dataclasses import replace

import numpy as np
import pytest

from insulopt.cli import _build_problem, _distribution, main
from insulopt.config import apply_overrides, parse_config, validate_config
from insulopt.convergence import gamma_sweep
from insulopt.errors import SchemaError
from insulopt.layer_solver import solve_eps
from insulopt.meshing import extrude_layer, triangulate_bulk
from insulopt.robin_solver import solve_limit

PSEUDO1D = {
    "domain": {
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "facets": [
            {"vertices": [0, 1], "label": "neumann"},
            {"vertices": [1, 2], "label": "insulated"},
            {"vertices": [2, 3], "label": "neumann"},
            {"vertices": [3, 0], "label": "dirichlet"},
        ],
    },
    "field_mode": "facet_normal",
    "distribution": {"type": "constant", "value": 1.0},
    "mass": 1.0,
    "data": {"f": 0.0, "g": 0.0, "u_D": 1.0},
    "solver": {"h": 0.125, "epsilon_list": [0.2, 0.1], "tol": 1e-12},
    "output": {"directory": "out"},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_minimal_config_defaults():
    cfg = parse_config(json.dumps({
        "domain": PSEUDO1D["domain"],
        "solver": {"h": 0.25},
    }))
    assert cfg.solver.tol == 1e-10
    assert cfg.solver.n_t == 4
    assert cfg.field_mode == "bisector"
    assert cfg.mass is None


def test_unknown_key_reports_path():
    bad = dict(PSEUDO1D)
    bad["solver"] = dict(PSEUDO1D["solver"], bogus=1)
    with pytest.raises(SchemaError) as err:
        validate_config(bad)
    assert "solver.bogus" in str(err.value)


def test_epsilon_list_must_decrease():
    bad = json.loads(json.dumps(PSEUDO1D))
    bad["solver"]["epsilon_list"] = [0.1, 0.2]
    with pytest.raises(SchemaError) as err:
        validate_config(bad)
    assert "epsilon_list" in str(err.value)


@pytest.mark.parametrize("key", ["n_t", "max_iter"])
@pytest.mark.parametrize("value", [True, False, 2.0])
def test_solver_integers_reject_booleans_and_floats(key, value):
    # JSON true would act as 1
    bad = json.loads(json.dumps(PSEUDO1D))
    bad["solver"][key] = value
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(bad))
    assert f"solver.{key}" in str(err.value)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", ["data.f", "data.g", "data.g.0", "data.u_D",
                                  "distribution.d_min", "solver.h", "mass"])
def test_nonfinite_numbers_are_schema_errors(tmp_path, capsys, path, text):
    # json parses NaN and Infinity; they must not reach a solver
    cfg = json.loads(json.dumps(PSEUDO1D))
    *parents, key = path.split(".")
    target = cfg
    for part in parents:
        if not isinstance(target[part], dict):
            target[part] = {}
        target = target[part]
    target[key] = "<value>"
    doc = json.dumps(cfg).replace('"<value>"', text)
    with pytest.raises(SchemaError) as err:
        parse_config(doc)
    assert str(err.value) == f"{path}: must be finite"
    (tmp_path / "cfg.json").write_text(doc)
    assert main(["solve-limit", "--config", str(tmp_path / "cfg.json"),
                 "--set", f"output.directory={tmp_path / 'out'}"]) == 1
    assert f"{path}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_round_trip_identical():
    cfg = validate_config(json.loads(json.dumps(PSEUDO1D)))
    again = parse_config(cfg.to_json())
    assert again.to_json() == cfg.to_json()


def test_overrides_dotted_paths():
    raw = json.loads(json.dumps(PSEUDO1D))
    apply_overrides(raw, ["solver.h=0.5", "output.directory=/tmp/x"])
    cfg = validate_config(raw)
    assert cfg.solver.h == 0.5
    assert cfg.output.directory == "/tmp/x"


# -- CLI ---------------------------------------------------------------------

def run_cli(tmp_path, cfg, *argv, capsys=None):
    cfg = json.loads(json.dumps(cfg))
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = write_cfg(tmp_path, cfg)
    return main([argv[0], "--config", path, *argv[1:]])


def parse_terms(captured):
    out = {}
    for line in captured.splitlines():
        if line.startswith("TERM="):
            name, value = line[5:].split(" VALUE=")
            out.setdefault(name, []).append(float(value))
    return out


def test_cli_solve_limit_prints_energy(tmp_path, capsys):
    assert run_cli(tmp_path, PSEUDO1D, "solve-limit") == 0
    terms = parse_terms(capsys.readouterr().out)
    assert terms["E_LIMIT"][0] == pytest.approx(0.25, abs=1e-10)
    assert (tmp_path / "out" / "limit.vtk").exists()


def test_cli_solve_eps_each_epsilon(tmp_path, capsys):
    assert run_cli(tmp_path, PSEUDO1D, "solve-eps") == 0
    terms = parse_terms(capsys.readouterr().out)
    assert terms["EPSILON"] == [0.2, 0.1]
    for value in terms["E_EPS"]:
        assert value == pytest.approx(0.25, rel=1e-9)


def test_cli_reconstruct_mass_row(tmp_path, capsys):
    assert run_cli(tmp_path, PSEUDO1D, "reconstruct") == 0
    csv_path = tmp_path / "out" / "reconstruct.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "s,d,d_normal"
    tag, mass, mass_n = lines[-1].split(",")
    assert tag == "MASS"
    assert float(mass) == pytest.approx(1.0, abs=1e-10)


def test_cli_missing_mass_schema_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(PSEUDO1D))
    del cfg["mass"]
    code = run_cli(tmp_path, cfg, "solve-reduced")
    assert code == 1
    assert "mass" in capsys.readouterr().err


def test_cli_bad_config_no_partial_outputs(tmp_path, capsys):
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["solver"]["h"] = -1
    code = run_cli(tmp_path, cfg, "solve-limit")
    assert code == 1
    assert not (tmp_path / "out").exists()


def test_cli_geometry_error_exit_code(tmp_path, capsys):
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["domain"]["vertices"] = [[0, 0], [1, 1], [1, 0], [0, 1]]  # bowtie
    assert run_cli(tmp_path, cfg, "solve-limit") == 2


def test_cli_gamma_sweep_csv(tmp_path, capsys):
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["solver"]["h"] = 0.25
    assert run_cli(tmp_path, cfg, "gamma-sweep") == 0
    text = (tmp_path / "out" / "gamma.csv").read_text()
    assert text.startswith("eps,energy_solution")
    terms = parse_terms(capsys.readouterr().out)
    assert terms["E_LIMIT"][0] == pytest.approx(0.25, abs=1e-9)
    # the file holds exactly the report's own CSV lines
    run = parse_config(json.dumps(cfg))
    _, field, _, data = _build_problem(run, need_mesh=False)
    report = gamma_sweep(field.domain, field, _distribution(run, field), data,
                         run.solver.epsilon_list, h=run.solver.h,
                         n_t=run.solver.n_t, tol=run.solver.tol)
    assert (tmp_path / "out" / "gamma.csv").read_bytes() == \
        ("\n".join(report.csv_rows()) + "\n").encode()


def test_gamma_sweep_pcg_counts_stay_out_of_the_outputs(tmp_path, capsys):
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["solver"]["h"] = 0.25
    assert run_cli(tmp_path, cfg, "gamma-sweep") == 0
    out = capsys.readouterr().out
    run = parse_config(json.dumps(cfg))
    _, field, _, data = _build_problem(run, need_mesh=False)
    dist = _distribution(run, field)
    h, n_t, tol = run.solver.h, run.solver.n_t, run.solver.tol
    report = gamma_sweep(field.domain, field, dist, data,
                         run.solver.epsilon_list, h=h, n_t=n_t, tol=tol)
    # each row carries the PCG iterations of its thin-layer solve, and the
    # report those of the limit solve
    bulk = triangulate_bulk(field.domain, h)
    _, rep = solve_limit(bulk, field, dist, data, tol=tol)
    assert report.pcg_iterations_limit == rep.diagnostics["pcg_iterations"]
    assert report.pcg_iterations_limit > 0
    for row in report.rows:
        glued = extrude_layer(bulk, field, dist, row.eps, n_t)
        _, rep = solve_eps(glued, row.eps, data, tol=tol)
        assert row.pcg_iterations == rep.diagnostics["pcg_iterations"] > 0
    # neither count reaches the CSV or the printed terms
    header, _ = report.csv_table()
    assert header == ("eps,energy_solution,energy_recovery,gap_solution,"
                      "gap_recovery,equicoercivity,layer_area_over_eps,"
                      "poincare_ratio")
    zeroed = replace(report, pcg_iterations_limit=0, rows=[
        replace(r, pcg_iterations=0) for r in report.rows])
    assert zeroed.csv_rows() == report.csv_rows()
    assert (tmp_path / "out" / "gamma.csv").read_bytes() == \
        ("\n".join(report.csv_rows()) + "\n").encode()
    last = report.rows[-1]
    assert out == "".join(
        f"TERM={name} VALUE={value:.17g}\n" for name, value in (
            ("E_LIMIT", report.energy_limit),
            ("WEIGHTED_MASS", report.weighted_mass),
            ("FINAL_GAP_SOLUTION", last.gap_solution),
            ("FINAL_GAP_RECOVERY", last.gap_recovery)))


def test_cli_check_lebesgue(tmp_path, capsys):
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["solver"]["epsilon_list"] = [0.2, 0.1, 0.05]
    assert run_cli(tmp_path, cfg, "check-lebesgue") == 0
    assert (tmp_path / "out" / "lebesgue.csv").exists()


def test_cli_outputs_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        cfg = json.loads(json.dumps(PSEUDO1D))
        cfg["output"]["directory"] = str(tmp_path / sub)
        path = write_cfg(tmp_path, cfg, name=f"{sub}.json")
        assert main(["reconstruct", "--config", path]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "reconstruct.csv").read_bytes() == \
        (tmp_path / "b" / "reconstruct.csv").read_bytes()


def test_cli_vtk_well_formed(tmp_path, capsys):
    assert run_cli(tmp_path, PSEUDO1D, "mesh") == 0
    text = (tmp_path / "out" / "mesh.vtk").read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in text
    glued = (tmp_path / "out" / "mesh_glued.vtk").read_text()
    assert "CELL_DATA" in glued and "region" in glued


def test_cli_gamma_sweep_vtk_dumps(tmp_path, capsys):
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["solver"]["h"] = 0.25
    assert run_cli(tmp_path, cfg, "gamma-sweep") == 0
    for i in range(len(cfg["solver"]["epsilon_list"])):
        assert (tmp_path / "out" / f"gamma_eps_{i}.vtk").exists()


def test_cli_nodal_csv_distribution(tmp_path, capsys):
    csv = tmp_path / "profile.csv"
    # arc coordinates of the insulated facet span [1, 2]
    csv.write_text("1.0,0.5\n1.5,1.0\n2.0,0.5\n")
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["distribution"] = {"type": "nodal_csv", "path": str(csv)}
    assert run_cli(tmp_path, cfg, "solve-limit") == 0
    terms = parse_terms(capsys.readouterr().out)
    assert np.isfinite(terms["E_LIMIT"][0])


def test_cli_nodal_csv_nonfinite_thickness_is_a_geometry_error(tmp_path,
                                                               capsys):
    csv = tmp_path / "profile.csv"
    csv.write_text("1.0,0.5\n1.5,nan\n2.0,0.5\n")
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["distribution"] = {"type": "nodal_csv", "path": str(csv)}
    assert run_cli(tmp_path, cfg, "solve-eps") == 2


def test_cli_per_triangle_source_csv(tmp_path, capsys):
    from insulopt.geometry import PolygonalDomain
    from insulopt.meshing import triangulate_bulk

    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["solver"]["h"] = 0.5
    domain = PolygonalDomain(
        cfg["domain"]["vertices"],
        [f["label"] for f in cfg["domain"]["facets"]])
    n_tris = len(triangulate_bulk(domain, 0.5).tris)
    fcsv = tmp_path / "f.csv"
    fcsv.write_text("\n".join(["1.0"] * n_tris))
    cfg["data"]["f"] = str(fcsv)
    assert run_cli(tmp_path, cfg, "solve-limit") == 0
    terms = parse_terms(capsys.readouterr().out)
    assert terms["E_LIMIT_SOURCE"][0] != 0.0


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["solve-limit", "solve-eps",
                                     "solve-reduced"])
def test_cli_per_triangle_source_csv_must_be_finite(tmp_path, capsys,
                                                   command, entry):
    cfg = json.loads(json.dumps(PSEUDO1D))
    cfg["solver"]["h"] = 0.5
    fcsv = tmp_path / "f.csv"
    fcsv.write_text("\n".join(["1.0"] * 7 + [entry]))  # 8 triangles at h = 0.5
    cfg["data"]["f"] = str(fcsv)
    assert run_cli(tmp_path, cfg, command) == 1
    assert "data.f: must be finite" in capsys.readouterr().err
