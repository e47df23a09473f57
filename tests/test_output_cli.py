import csv

import numpy as np
import pytest

from gepup import UNIT_SQUARE, build_mesh, build_space, interpolate, taylor_green_case
from gepup.bench import ConvergenceTable
from gepup.cli import RunConfig, UsageError, main, parse_config, serialize_config
from gepup.output import write_convergence_csv, write_monitor_csv, write_vtk
from vtk_check import read_legacy_vtk


# ---- VTK writer -------------------------------------------------------------


def test_vtk_single_q1_element_zero_fields(tmp_path):
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 0), 1)
    z = np.zeros(space.n_dofs)
    path = tmp_path / "zero.vtk"
    write_vtk(space, path, velocity=[z, z], pressure=z)
    data = read_legacy_vtk(path)
    assert len(data["points"]) == 4
    assert len(data["cells"]) == 1
    assert all(t == 9 for t in data["cell_types"])
    for arr in data["point_data"].values():
        assert np.allclose(arr, 0.0)
    assert set(data["point_data"]) == {"velocity", "pressure", "vorticity", "divergence"}


def test_vtk_2x2_q2_subcell_counts(tmp_path):
    space = build_space(build_mesh(UNIT_SQUARE, (2, 2), 0), 2)
    z = np.zeros(space.n_dofs)
    path = tmp_path / "q2.vtk"
    write_vtk(space, path, velocity=[z, z], pressure=z)
    data = read_legacy_vtk(path)
    assert len(data["points"]) == 25
    assert len(data["cells"]) == 16


def test_vtk_taylor_green_pressure_range(tmp_path):
    case = taylor_green_case(100.0)
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 4), 3)
    U = [
        interpolate(space, lambda x, y, t, d=d: case.exact_u(x, y, 0.0)[d])
        for d in range(2)
    ]
    Q = interpolate(space, lambda x, y, t: case.exact_p(x, y, 0.0))
    path = tmp_path / "tg.vtk"
    write_vtk(space, path, velocity=U, pressure=Q)
    data = read_legacy_vtk(path)
    p = data["point_data"]["pressure"]
    assert p.min() == pytest.approx(-0.5, abs=1e-12)
    assert p.max() == pytest.approx(0.5, abs=1e-12)
    # z-component of the 3-vector velocity is zero
    assert np.allclose(data["point_data"]["velocity"][:, 2], 0.0)


def test_vtk_divergence_and_vorticity_of_linear_fields(tmp_path):
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 2), 2)
    U = [
        interpolate(space, lambda x, y, t: x),
        interpolate(space, lambda x, y, t: y),
    ]
    path = tmp_path / "lin.vtk"
    write_vtk(space, path, velocity=U)
    data = read_legacy_vtk(path)
    assert np.allclose(data["point_data"]["divergence"], 2.0, atol=1e-12)
    assert np.allclose(data["point_data"]["vorticity"], 0.0, atol=1e-12)


# ---- CSV writers ---------------------------------------------------------------


def _table(rows):
    table = ConvergenceTable()
    errs = ("u_L2", "u_H1", "u_Linf", "q_L2", "q_H1", "q_Linf")
    for h, base in rows:
        table.add_row(h, {k: base * (1 + 0.1 * i) for i, k in enumerate(errs)})
    return table


def test_csv_single_row_has_no_rates(tmp_path):
    path = tmp_path / "one.csv"
    write_convergence_csv(_table([(0.25, 1e-3)]), path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 2
    header, data = rows
    assert header[:3] == ["h", "u_L2", "u_L2_rate"]
    rate_cols = [i for i, name in enumerate(header) if name.endswith("_rate")]
    assert all(data[i] == "" for i in rate_cols)


def test_csv_rate_arithmetic(tmp_path):
    path = tmp_path / "two.csv"
    write_convergence_csv(_table([(0.25, 8e-6), (0.125, 5e-7)]), path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, r1, r2 = rows
    i = header.index("u_L2_rate")
    assert float(r2[i]) == pytest.approx(4.0, abs=1e-12)


def test_csv_rates_recomputable_from_error_columns(tmp_path):
    path = tmp_path / "chk.csv"
    write_convergence_csv(_table([(0.5, 3e-4), (0.25, 2.2e-5), (0.125, 1.5e-6)]), path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    for key in ("u_L2", "q_H1"):
        e_col = header.index(key)
        r_col = header.index(key + "_rate")
        for prev, cur in zip(rows[1:], rows[2:]):
            expect = np.log2(float(prev[e_col]) / float(cur[e_col]))
            assert float(cur[r_col]) == pytest.approx(expect, abs=5e-3)


def test_csv_is_rfc4180_crlf(tmp_path):
    path = tmp_path / "eol.csv"
    write_convergence_csv(_table([(0.25, 1e-3)]), path)
    raw = path.read_bytes()
    assert b"\r\n" in raw


def test_monitor_csv_round_trip(tmp_path):
    monitors = [
        {
            "step": 0, "t": 0.0, "dt": 0.0, "div_l2": 1e-9, "kinetic_energy": 0.25,
            "res_momentum": 0.0, "res_poisson_phi": 3.1e-16, "res_poisson_q": 4.2e-16,
            "res_mass": 2.5e-16,
        },
        {
            "step": 1, "t": 0.05, "dt": 0.05, "div_l2": 2e-9, "kinetic_energy": 0.24,
            "res_momentum": 6.2e-16, "res_poisson_phi": 3.3e-16, "res_poisson_q": 4.0e-16,
            "res_mass": 2.8e-16,
        },
    ]
    path = tmp_path / "mon.csv"
    write_monitor_csv(monitors, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert float(rows[1]["t"]) == 0.05
    assert float(rows[1]["res_mass"]) == 2.8e-16
    assert float(rows[0]["res_momentum"]) == 0.0


# ---- config parsing ----------------------------------------------------------------


TABLE1_FLAGS = [
    "run", "--case", "taylor-green", "--re", "100", "--degree", "3",
    "--level", "3", "--integrator", "ark4", "--t-end", "1.0",
]


def test_parse_table1_configuration():
    command, cfg = parse_config(TABLE1_FLAGS)
    assert command == "run"
    assert cfg.case == "taylor-green"
    assert cfg.re == 100.0
    assert cfg.degree == 3
    assert cfg.level == 3
    assert cfg.integrator == "ark4"
    assert cfg.t_end == 1.0
    assert cfg.courant == 0.8  # default
    assert cfg.rel_tol == 1e-12  # default


def test_parse_empty_input_lists_required_keys():
    with pytest.raises(UsageError, match="required"):
        parse_config(["run"])


def test_parse_rejects_out_of_range_degree():
    flags = list(TABLE1_FLAGS)
    flags[flags.index("--degree") + 1] = "7"
    with pytest.raises(UsageError, match="degree"):
        parse_config(flags)


def test_parse_rejects_unknown_case_and_integrator():
    flags = list(TABLE1_FLAGS)
    flags[flags.index("--case") + 1] = "bogus"
    with pytest.raises(UsageError, match="case"):
        parse_config(flags)
    flags = list(TABLE1_FLAGS)
    flags[flags.index("--integrator") + 1] = "rk99"
    with pytest.raises(UsageError, match="integrator"):
        parse_config(flags)


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_config(TABLE1_FLAGS + ["--frobnicate", "1"])


def test_config_round_trip():
    _, cfg = parse_config(TABLE1_FLAGS)
    again_cmd, again = parse_config(["run"] + serialize_config(cfg))
    assert again == cfg


def test_config_round_trip_converge():
    _, cfg = parse_config(
        ["converge", "--case", "taylor-green", "--degree", "3", "--t-end", "0.5",
         "--levels", "3,4,5"]
    )
    assert cfg.levels == (3, 4, 5)
    _, again = parse_config(["converge"] + serialize_config(cfg))
    assert again == cfg


# ---- CLI entry ------------------------------------------------------------------------


def test_cli_usage_error_exit_code(capsys):
    assert main(["run", "--case", "nope", "--degree", "3", "--level", "2", "--t-end", "1"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_missing_command_exit_code(capsys):
    assert main([]) == 1


def test_cli_validate_tableaus(capsys):
    assert main(["validate-tableaus"]) == 0
    out = capsys.readouterr().out
    assert "ark4" in out and "ark5" in out and "FAILED" not in out


def test_cli_run_writes_outputs(tmp_path, capsys):
    code = main(
        ["run", "--case", "taylor-green", "--re", "100", "--degree", "2", "--level", "2",
         "--t-end", "0.05", "--outdir", str(tmp_path), "--snapshot-interval", "2"]
    )
    assert code == 0
    assert (tmp_path / "taylor-green-monitors.csv").exists()
    assert (tmp_path / "taylor-green-final.vtk").exists()
    snaps = list(tmp_path.glob("taylor-green-step*.vtk"))
    assert snaps
    read_legacy_vtk(tmp_path / "taylor-green-final.vtk")
    out = capsys.readouterr().out
    assert "u_L2" in out


def test_cli_converge_writes_csv(tmp_path):
    code = main(
        ["converge", "--case", "taylor-green", "--degree", "2", "--t-end", "0.0",
         "--levels", "2,3", "--outdir", str(tmp_path)]
    )
    assert code == 0
    path = tmp_path / "taylor-green-convergence.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3
