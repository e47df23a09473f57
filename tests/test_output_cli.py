import csv

import numpy as np
import pytest

from gepup import UNIT_SQUARE, RectDomain, build_space, interpolate, taylor_green_case
from gepup.bench import ConvergenceTable
from gepup.cli import UsageError, main, parse_config, serialize_config
from gepup.output import (
    _subcell_connectivity,
    nodal_curl_and_div,
    write_convergence_csv,
    write_monitor_csv,
    write_vtk,
)
from vtk_check import read_legacy_vtk, write_vtk_per_value


# ---- VTK writer -------------------------------------------------------------


def test_vtk_single_q1_element_zero_fields(tmp_path):
    space = build_space(UNIT_SQUARE, (1, 1), 1)
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
    space = build_space(UNIT_SQUARE, (2, 2), 2)
    z = np.zeros(space.n_dofs)
    path = tmp_path / "q2.vtk"
    write_vtk(space, path, velocity=[z, z], pressure=z)
    data = read_legacy_vtk(path)
    assert len(data["points"]) == 25
    assert len(data["cells"]) == 16


def test_vtk_taylor_green_pressure_range(tmp_path):
    case = taylor_green_case(100.0)
    space = build_space(UNIT_SQUARE, (16, 16), 3)
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
    space = build_space(UNIT_SQUARE, (4, 4), 2)
    U = [
        interpolate(space, lambda x, y, t: x),
        interpolate(space, lambda x, y, t: y),
    ]
    path = tmp_path / "lin.vtk"
    write_vtk(space, path, velocity=U)
    data = read_legacy_vtk(path)
    assert np.allclose(data["point_data"]["divergence"], 2.0, atol=1e-12)
    assert np.allclose(data["point_data"]["vorticity"], 0.0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("fields", ["none", "velocity", "pressure", "both"])
def test_vtk_bytes_match_per_value_writer(tmp_path, k, fields):
    space = build_space(RectDomain((0.25, -1.0), (2.0, 3.0)), (3, 2), k)
    rng = np.random.default_rng(k)
    # values spanning many magnitudes, signs, exact integers and a negative zero
    U = [rng.standard_normal(space.n_dofs) * 10.0 ** rng.integers(-20, 20, space.n_dofs) for _ in range(2)]
    U[0][:3] = (0.0, -0.0, 7.0)
    Q = rng.standard_normal(space.n_dofs) / 3.0
    kwargs = {
        "velocity": U if fields in ("velocity", "both") else None,
        "pressure": Q if fields in ("pressure", "both") else None,
    }
    write_vtk(space, tmp_path / "fast.vtk", title="check", **kwargs)
    write_vtk_per_value(space, tmp_path / "reference.vtk", title="check", **kwargs)
    assert (tmp_path / "fast.vtk").read_bytes() == (tmp_path / "reference.vtk").read_bytes()


def test_vtk_round_trips_exact_doubles(tmp_path):
    # %.16g text does not round-trip every double; the binary frame must
    assert float(f"{0.1 + 0.2:.16g}") != 0.1 + 0.2
    assert float(f"{np.nextafter(1.0, 2.0):.16g}") != np.nextafter(1.0, 2.0)
    space = build_space(RectDomain((0.1, -0.3), (0.7, 1.1)), (3, 5), 3)
    rng = np.random.default_rng(3)
    U = [rng.standard_normal(space.n_dofs) for _ in range(2)]
    Q = rng.standard_normal(space.n_dofs)
    special = (0.1 + 0.2, np.nextafter(1.0, 2.0), 1e-300, -0.0)
    U[0][:4] = special
    U[1][-4:] = special
    Q[5:9] = special
    title = "t" * 255
    path = tmp_path / "exact.vtk"
    write_vtk(space, path, velocity=U, pressure=Q, title=title)
    data = read_legacy_vtk(path)
    assert data["title"] == title
    assert np.array_equal(data["points"], np.column_stack([space.support_points, np.zeros(space.n_dofs)]))
    assert np.array_equal(data["cells"], _subcell_connectivity(space))
    fields = data["point_data"]
    assert np.array_equal(fields["velocity"], np.column_stack([U[0], U[1], np.zeros(space.n_dofs)]))
    assert np.array_equal(fields["pressure"], Q)
    curl, div = nodal_curl_and_div(space, U)
    assert np.array_equal(fields["vorticity"], curl)
    assert np.array_equal(fields["divergence"], div)
    # array_equal does not see the sign of zero
    assert np.signbit(fields["velocity"][3, 0]) and np.signbit(fields["pressure"][8])


@pytest.mark.parametrize("field", ["velocity[0]", "velocity[1]", "pressure"])
def test_vtk_rejects_field_of_wrong_length(tmp_path, field):
    space = build_space(UNIT_SQUARE, (2, 2), 2)
    z = np.zeros(space.n_dofs)
    U, Q = [z, z], z
    if field == "pressure":
        Q = z[:-3]
    else:
        U[int(field[-2])] = z[:-3]
    path = tmp_path / "bad.vtk"
    with pytest.raises(ValueError, match=field.replace("[", r"\[")):
        write_vtk(space, path, velocity=U, pressure=Q)
    assert not path.exists()


@pytest.mark.parametrize("title", ["two\nlines", "t" * 256], ids=["newline", "256-chars"])
def test_vtk_rejects_title_that_breaks_the_header(tmp_path, title):
    space = build_space(UNIT_SQUARE, (1, 1), 1)
    path = tmp_path / "bad.vtk"
    with pytest.raises(ValueError, match="title"):
        write_vtk(space, path, title=title)
    assert not path.exists()


@pytest.mark.parametrize("damage", ["truncated", "trailing"])
def test_vtk_reader_rejects_truncated_block_and_trailing_bytes(tmp_path, damage):
    space = build_space(UNIT_SQUARE, (2, 2), 2)
    z = np.zeros(space.n_dofs)
    path = tmp_path / "frame.vtk"
    write_vtk(space, path, velocity=[z, z], pressure=z)
    read_legacy_vtk(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9] if damage == "truncated" else raw + b"\0")
    with pytest.raises(AssertionError):
        read_legacy_vtk(path)


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
    # the frame decodes to the space's points and the curl and divergence of
    # its own velocity, bit for bit
    data = read_legacy_vtk(tmp_path / "taylor-green-final.vtk")
    space = build_space(UNIT_SQUARE, (4, 4), 2)
    assert np.array_equal(data["points"][:, :2], space.support_points)
    fields = data["point_data"]
    curl, div = nodal_curl_and_div(space, fields["velocity"][:, :2].T)
    assert np.array_equal(fields["vorticity"], curl)
    assert np.array_equal(fields["divergence"], div)
    out = capsys.readouterr().out
    assert "u_L2" in out


def test_cli_run_writes_the_final_state_once(tmp_path):
    # one step, and a snapshot every step: the last step's state is the final frame
    code = main(
        ["run", "--case", "lid-cavity", "--re", "100", "--degree", "3", "--level", "2",
         "--t-end", "0.02", "--snapshot-interval", "1", "--outdir", str(tmp_path)]
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "lid-cavity-final.vtk",
        "lid-cavity-monitors.csv",
        "lid-cavity-step000000.vtk",
    ]
    with open(tmp_path / "lid-cavity-monitors.csv", newline="") as f:
        assert [row["step"] for row in csv.DictReader(f)] == ["0", "1"]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--courant", "nan"),
        ("--courant", "inf"),
        ("--courant", "0"),
        ("--rel-tol", "nan"),
        ("--rel-tol", "1"),
        ("--re", "nan"),
        ("--re", "-1"),
        ("--t-end", "nan"),
        ("--t-end", "inf"),
        ("--t0", "nan"),
    ],
)
def test_cli_rejects_nan_and_out_of_range_values(flag, value, capsys):
    flags = TABLE1_FLAGS + [flag, value]
    with pytest.raises(UsageError, match=flag):
        parse_config(flags)
    assert main(flags) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["single-vortex", "lid-cavity"])
def test_cli_converge_rejects_a_case_without_exact_solution(case, tmp_path, capsys, monkeypatch):
    import gepup.bench

    def no_run(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(gepup.bench, "run_simulation", no_run)
    flags = ["converge", "--case", case, "--re", "100", "--degree", "2", "--t-end", "0.01",
             "--levels", "2,3", "--outdir", str(tmp_path)]
    with pytest.raises(UsageError, match=f"--case: .*'{case}'"):
        parse_config(flags)
    assert main(flags) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and case in err
    assert not list(tmp_path.iterdir())


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
