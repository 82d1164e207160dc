import math
import os
import stat
from pathlib import Path

import pytest

import qdcnot.cli as cli
import qdcnot.sweep as sweep_mod
from qdcnot.cli import main


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cavity_subcommand(capsys):
    assert main(["cavity", "--g", "2.5", "--ks", "0.05", "--gamma", "0.1"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["t1"]) == pytest.approx(0.2 / 25.205, abs=1e-9)
    assert float(values["r1"]) == pytest.approx(1 - 0.2 / 25.205, abs=1e-9)
    assert float(values["t0"]) == pytest.approx(0.2 / 0.205, abs=1e-9)
    assert float(values["r0"]) == pytest.approx(1 - 0.2 / 0.205, abs=1e-9)


@pytest.mark.parametrize("flag, field", [("--gamma", "gamma"), ("--g", "g"), ("--ks", "kappa_s")])
def test_cavity_subcommand_rejects_non_finite_rates(capsys, flag, field):
    rates = {"--g": "1", "--ks": "0", "--gamma": "0.1", flag: "inf"}
    assert main(["cavity", *[x for kv in rates.items() for x in kv]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be")


def test_simulate_prints_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "circuit = baseline\nensemble = basis4\n")
    assert main(["simulate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert float(fields["f_up"]) == pytest.approx(0.9370889, abs=1e-6)
    assert float(fields["success_up"]) + float(fields["success_down"]) <= 1 + 1e-9


def test_simulate_invalid_config_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "xi1 = 2.0\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "xi1" in capsys.readouterr().err


def test_simulate_output_norm_fault_exits_1(tmp_path, capsys):
    # a config whose output norm exceeds 1 is outside the model's domain
    cfg = write_cfg(tmp_path, (
        "ensemble = superposition4\nxi1 = 0.1\nkappa_s_over_kappa = 0\ng_over_kappa = 3\n"
    ))
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: output norm exceeds 1: ")


def test_reproduce_workers_flag_retired(tmp_path, capsys):
    # grid rows run as batches in one process; the worker-pool flag is gone
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig3a", "--out-dir", str(out_dir), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        "circuit = baseline\nensemble = basis4\n"
        "axis1 = kappa_s_over_kappa\naxis1_lo = 0.05\naxis1_hi = 1.0\naxis1_points = 2\n"
        "axis2 = g_over_kappa\naxis2_lo = 0.45\naxis2_hi = 2.5\naxis2_points = 2\n"
    ))
    out_csv = str(tmp_path / "out.csv")
    assert main(["sweep", "--config", cfg, "--out", out_csv]) == 0
    lines = Path(out_csv).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "kappa_s_over_kappa,g_over_kappa,f_up,f_down,status"
    assert len(lines) == 5


def test_sweep_err_psw_dispatch(tmp_path):
    cfg = write_cfg(tmp_path, (
        "circuit = optimized\nensemble = basis4\n"
        "axis1 = err\naxis1_lo = 1e-4\naxis1_hi = 1e-1\naxis1_points = 2\naxis1_scale = log\n"
        "axis2 = p_sw\naxis2_lo = 0.6\naxis2_hi = 1.0\naxis2_points = 2\n"
    ))
    out_csv = str(tmp_path / "out.csv")
    assert main(["sweep", "--config", cfg, "--out", out_csv]) == 0
    header = Path(out_csv).read_text(encoding="utf-8").splitlines()[0]
    assert header == "err,p_sw,f_both,status"


def test_sweep_unwritable_out_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "circuit = baseline\nensemble = basis4\naxis1_points = 2\naxis2_points = 2\n")
    missing_dir = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    assert main(["sweep", "--config", cfg, "--out", missing_dir]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    assert main(["simulate", "--config", "/nonexistent/path.cfg"]) == 2


def test_reproduce_table_anchors_exit_0(tmp_path, capsys):
    assert main(["reproduce", "table_anchors", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "baseline_strong_ideal" in out and "PASS" in out
    assert os.path.exists(tmp_path / "table_anchors.csv")
    assert os.path.exists(tmp_path / "table_anchors_summary.txt")


def test_reproduce_unknown_target_exits_1(tmp_path, capsys):
    assert main(["reproduce", "fig9", "--out-dir", str(tmp_path)]) == 1
    assert "fig9" in capsys.readouterr().err


def test_reproduce_anchor_failure_exits_3(tmp_path, monkeypatch):
    # force an impossible expectation so the anchor check genuinely fails
    broken = tuple(
        sweep_mod.Anchor(
            a.name, 0.5, 1e-6, a.circuit, a.cavity, a.errors,
            documented_residual=False,
        )
        for a in sweep_mod.ANCHORS[:1]
    )
    monkeypatch.setattr(sweep_mod, "ANCHORS", broken)
    assert main(["reproduce", "table_anchors", "--out-dir", str(tmp_path)]) == 3


def test_sweep_out_from_config(tmp_path):
    out_csv = tmp_path / "from_cfg.csv"
    cfg = write_cfg(tmp_path, (
        "circuit = baseline\nensemble = basis4\naxis1_points = 2\naxis2_points = 2\n"
        f"out = {out_csv}\n"
    ))
    assert main(["sweep", "--config", cfg]) == 0
    assert out_csv.exists()


def test_sweep_no_out_anywhere_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "circuit = baseline\nensemble = basis4\naxis1_points = 2\naxis2_points = 2\n")
    assert main(["sweep", "--config", cfg]) == 1
    assert "output path" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    import qdcnot

    # the child must import the same package this process imported
    src = os.path.dirname(os.path.dirname(qdcnot.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qdcnot", "cavity", "--g", "2.5", "--ks", "0.05",
         "--gamma", "0.1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "t1 = 0.007934933545" in proc.stdout


def test_sweep_out_to_a_pipe(tmp_path):
    import subprocess
    import sys

    import qdcnot

    cfg = write_cfg(tmp_path, "circuit = baseline\nensemble = basis4\naxis1_points = 2\naxis2_points = 2\n")
    out_csv = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out_csv)]) == 0
    src = os.path.dirname(os.path.dirname(qdcnot.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # /dev/stdout is the pipe: nothing to cut, and the CSV lands before the report line
    proc = subprocess.run(
        [sys.executable, "-m", "qdcnot", "sweep", "--config", cfg, "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out_csv.read_bytes() + b"wrote 4 rows to /dev/stdout\n"


def test_cavity_subcommand_rejects_zero_gamma(capsys):
    # gamma = 0 zeroes the cold cavity's denominator: the domain rejects it by name
    assert main(["cavity", "--g", "1", "--ks", "0", "--gamma", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gamma must be positive and finite, got 0.0\n"


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    text = "circuit = optimized\nensemble = basis4\n"
    plain = write_cfg(tmp_path, text)
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert sweep_mod.load_config(str(marked)) == sweep_mod.load_config(plain)
    assert main(["simulate", "--config", str(marked)]) == 0
    assert "optimized" in capsys.readouterr().out


@pytest.mark.parametrize("text, named", [
    ("circuit = optimized\n\ufeffensemble = basis4\n", "'\\ufeffensemble' (line 2)"),
    ("circuit = \ufeffoptimized\n", "'circuit'"),
])
def test_a_byte_order_mark_past_the_start_is_rejected(tmp_path, capsys, text, named):
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main(["simulate", "--config", str(marked)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_sweep_rejects_an_unsupported_axis_pair(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "axis1 = err\naxis2 = kappa_s_over_kappa\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: sweep axes must be kappa_s_over_kappa and "
                            "g_over_kappa, or err and p_sw, got ['err', 'kappa_s_over_kappa']\n")
    assert not (tmp_path / "out.csv").exists()
