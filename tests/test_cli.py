import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delcfwm import criteria
from delcfwm.cli import main
from delcfwm.presets import available_presets, load_preset

TINY_SCAN = {
    "system": "tri",
    "gains": {
        "G1": {"start": 1.0, "stop": 1.2, "step": 0.1},
        "G2": {"start": 1.0, "stop": 1.2, "step": 0.1},
    },
    "criteria": ["D12", "D13"],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cli_process(args, **kwargs):
    """Popen of ``python -m delcfwm.cli args`` in a fresh process; ``kwargs`` go to Popen."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.Popen([sys.executable, "-m", "delcfwm.cli", *args], env=env, **kwargs)


def run_cli(args):
    """Exit code, stdout and stderr of ``python -m delcfwm.cli args``."""
    with cli_process(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err


class TestRegionScan:
    def test_csv_shape_and_order(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SCAN)
        out = tmp_path / "scan.csv"
        assert main(["region-scan", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "G1,G2,criterion,value,entangled,region"
        assert len(lines) == 1 + 3 * 3 * 2  # 3x3 grid, two criteria
        body = [line.split(",") for line in lines[1:]]
        keys = [(float(r[0]), float(r[1]), r[2]) for r in body]
        assert keys == sorted(keys)
        # vacuum point saturates the bound and is unentangled
        assert body[0][:4] == ["1.0", "1.0", "D12", "4.0"]
        assert body[0][4] == "false"

    def test_deterministic_across_jobs(self, tmp_path, monkeypatch):
        labels = ["D12", "D13", "PPT:1|2", "PPT:1|23"]
        cfg = write_config(tmp_path, dict(TINY_SCAN, criteria=labels))
        outputs = []
        # the 9-point grid in one block, then in five blocks of up to 2 points
        for block, jobs in ((criteria.BLOCK, 1), (2, 1), (2, 4)):
            monkeypatch.setattr(criteria, "BLOCK", block)
            out = tmp_path / f"{block}-{jobs}.csv"
            assert main([
                "region-scan", "--config", cfg, "--out", str(out), "--jobs", str(jobs)
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:-1]

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SCAN)
        assert main(["region-scan", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["criterion"] == "D12"
        assert {"G1", "G2", "value", "entangled", "region"} <= set(rows[0])

    def test_invalid_criterion_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_SCAN, criteria=["D12", "BOGUS"]))
        assert main(["region-scan", "--config", cfg]) == 2
        assert "BOGUS" in capsys.readouterr().err

    def test_gain_below_one_exits_2(self, tmp_path, capsys):
        bad = dict(TINY_SCAN, gains={"G1": 0.5, "G2": 1.2})
        cfg = write_config(tmp_path, bad)
        assert main(["region-scan", "--config", cfg]) == 2

    def test_infinite_grid_stop_exits_2(self, tmp_path, capsys):
        gains = {"G1": {"start": 1.0, "stop": float("inf"), "step": 0.1}, "G2": 1.2}
        cfg = write_config(tmp_path, dict(TINY_SCAN, gains=gains))
        assert main(["region-scan", "--config", cfg]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_value_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_SCAN, gains={"G1": 1e200, "G2": 1.2}))
        out = tmp_path / "scan.json"
        assert main(["region-scan", "--config", cfg, "--format", "json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "D12 is not finite" in captured.err and "G1=1e+200, G2=1.2" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "criteria, label", [(["D12", "PPT:1|23"], "D12"), (["PPT:1|23", "PPT:1|3"], "PPT:1|23")]
    )
    def test_non_finite_state_prints_one_error_line(self, tmp_path, criteria, label):
        config = {"system": "tri", "gains": {"G1": 1e200, "G2": 1.2}, "criteria": criteria}
        code, out, err = run_cli(["region-scan", "--config", write_config(tmp_path, config)])
        assert code == 2 and out == ""
        assert err == f"error: criterion {label} is not finite (nan) at G1=1e+200, G2=1.2\n"

    def test_closed_stdout_exits_nonzero_without_traceback(self):
        # fig3 writes about 1 MB, far more than a pipe holds
        args = ["region-scan", "--preset", "fig3"]
        with cli_process(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"G1,G2,criterion,value,entangled,region\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) != 0
        assert err == b""

    def test_fig6_preset(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["region-scan", "--preset", "fig6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "G1,G2,G3,criterion,value,entangled,region"
        preset = load_preset("fig6")
        n_points = 101  # G1 in [1, 2] step 0.01
        assert len(lines) == 1 + n_points * len(preset["criteria"])
        # fixed gains appear verbatim in every row
        assert all(line.split(",")[1:3] == ["1.3", "1.1"] for line in lines[1:])


class TestSpectrum:
    def test_preset_columns_and_normalization(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--preset", "fig8_col2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta1,abs_rho_normalized,abs_rho_raw,real,imag"
        normalized = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(normalized) == 1.0
        assert all(0.0 <= v <= 1.0 for v in normalized)

    def test_multiple_cases_need_out(self, tmp_path, capsys):
        doc = {"cases": ["fwm1_s2", "rho2_e1"]}
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg]) == 2

    def test_multiple_cases_one_file_each(self, tmp_path):
        doc = {"cases": ["fwm1_s2", "rho2_e1"]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert (tmp_path / "spec_fwm1_s2.csv").exists()
        assert (tmp_path / "spec_rho2_e1.csv").exists()

    def test_coarse_grid_exits_2(self, tmp_path):
        doc = {"grid": {"start": -50.0, "stop": 40.0, "step": 2.0}}
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg]) == 2

    def test_non_finite_spectrum_exits_2_and_writes_nothing(self, tmp_path):
        gammas = ("gamma31", "gamma21", "gamma32", "gamma12", "gamma23", "gamma33")
        doc = {
            "params": dict.fromkeys(gammas, 1e300),
            "grid": {"start": -1e300, "stop": 1e300, "step": 1e299},
        }
        out = tmp_path / "spec.csv"
        code, _, err = run_cli(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert err == "error: the fwm1_s2 spectrum is not finite on this grid\n"
        assert not out.exists()

    def test_step_equal_to_min_gamma_accepted(self, tmp_path, capsys):
        # grid[1] - grid[0] is 0.10000000000000142 here: the step rule allows that roundoff
        gammas = ("gamma31", "gamma21", "gamma32", "gamma12", "gamma23", "gamma33")
        cfg = write_config(tmp_path, {"params": dict.fromkeys(gammas, 0.1)})
        assert main(["spectrum", "--config", cfg]) == 0
        assert main(["channels", "--config", cfg]) == 0

    def test_null_omega_s3_defaults_to_omega_s1(self, tmp_path, capsys):
        outputs = []
        for omega_s3 in (None, 2.0):
            doc = {"case": "fwm2_s2", "params": {"omega_s1": 2.0, "omega_s3": omega_s3}}
            assert main(["spectrum", "--config", write_config(tmp_path, doc)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_unknown_case_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"case": "nonsense"})
        assert main(["spectrum", "--config", cfg]) == 2
        assert "nonsense" in capsys.readouterr().err


class TestChannels:
    def test_default_dressed_case(self, capsys):
        assert main(["channels", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "rho2_e1"
        assert doc["n_channels"] == 3
        assert doc["capacity"] == 27
        assert doc["warnings"] == []
        for entry in doc["channels"]:
            assert entry["position_diff"] < 2.0

    def test_rho1_case_positions(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"case": "rho1_e1"})
        assert main(["channels", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["capacity"] == 8
        assert sorted(ch["delta1_analytic"] for ch in doc["channels"]) == [-20.0, 0.0]

    def test_undressed_case(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"case": "fwm1_s2"})
        assert main(["channels", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_channels"] == 2 and doc["capacity"] == 8

    def test_csv_format(self, capsys):
        assert main(["channels", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("label,delta1_analytic,delta1_numeric")
        assert len(lines) == 4


class TestProfile:
    def test_flat_profile_with_markers(self, tmp_path):
        doc = {"amplitude": 0.0, "criteria": ["D12"]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "profile.csv"
        assert main(["profile", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta1,G1,criterion,value,entangled"
        data = [line.split(",") for line in lines[1:] if not line.split(",")[2].startswith("channel:")]
        markers = [line.split(",") for line in lines[1:] if line.split(",")[2].startswith("channel:")]
        assert len(markers) == 3  # one per coherent channel
        assert all(row[1] == "1.0" for row in data)
        values = {row[3] for row in data}
        assert len(values) == 1  # constant criterion at zero amplitude

    def test_quad_preset(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["profile", "--preset", "fig9_quad", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        preset = load_preset("fig9_quad")
        n_grid = 451  # [-50, 40] step 0.2
        assert len(lines) == 1 + n_grid * len(preset["criteria"]) + 3

    def test_tri_system_with_g3_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"gains": {"G3": 1.1}})
        assert main(["profile", "--config", cfg]) == 2


class TestValidate:
    def test_filter_capacity(self, capsys):
        assert main(["validate", "--filter", "capacity"]) == 0
        out = capsys.readouterr().out
        assert "capacity" in out and "PASS" in out

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["validate", "--filter", "energy", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload[0]["name"] == "energy-conservation"
        assert payload[0]["passed"] is True

    def test_unknown_filter_exits_2(self, capsys):
        assert main(["validate", "--filter", "nope"]) == 2


class TestConfigHandling:
    def test_unknown_preset_exits_2(self, capsys):
        assert main(["region-scan", "--preset", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_preset_command_mismatch_exits_2(self, capsys):
        assert main(["spectrum", "--preset", "fig3"]) == 2

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["region-scan", "--config", str(path)]) == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SCAN)
        out = tmp_path / "missing" / "dir" / "scan.csv"
        assert main(["region-scan", "--config", cfg, "--out", str(out)]) == 2

    def test_bad_atomic_param_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"params": {"gamma21": -1.0}})
        assert main(["spectrum", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["spectrum", "--preset", "fig8_col3"], {"params": {"omega1": 1e200}},
             "the rho2_e1 spectrum is not finite on this grid"),
            (["profile", "--preset", "fig9_tri"], {"params": {"omega1": 1e200}},
             "the rho2_e1 spectrum is not finite on this grid"),
            (["channels"], {"params": {"omega1": 1e200}},
             "the rho2_e1 channel positions are not finite for these parameters"),
            (["profile"], {"amplitude": 800.0},
             "criterion D12 is not finite (nan) at delta1=-21.4, G1=1.3245392179602084e+161"),
            (["region-scan"], {"gains": {"G1": "abc", "G2": 1.2}},
             'gain G1 must be a number, got "abc"'),
            (["region-scan"], {"gains": {"G1": None}}, "gain G1 must be a number, got null"),
            (["region-scan"], {"gains": {"G1": [1, 2]}}, "gain G1 must be a number, got [1, 2]"),
            (["spectrum"], {"grid": {"start": None}}, "'grid' start must be a number, got null"),
            (["region-scan"], {"criteria": "D12"},
             "'criteria' must be a list of strings, got \"D12\""),
            (["region-scan"], {"criteria": [5]}, "'criteria' must be a list of strings, got [5]"),
            (["spectrum"], {"cases": "fwm1_s2"}, "'cases' must be a list of strings, got \"fwm1_s2\""),
            (["channels"], {"params": {"omega_s1": 1e307}},
             "the rho2_e1 spectrum is not finite on this grid"),
            (["region-scan"], {"gains": {"G1": True, "G2": 1.2}}, "gain G1 must be a number, got true"),
            (["channels"], {"params": {"omega1": True}},
             "atomic parameter omega1 must be a number, got true"),
            (["channels"], {"params": {"omega1": "x"}},
             'atomic parameter omega1 must be a number, got "x"'),
            (["channels"], {"params": {"omega1": None}},
             "atomic parameter omega1 must be a number, got null"),
        ],
    )
    def test_overflowing_config_exits_2(self, tmp_path, args, config, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config)
        code, stdout, err = run_cli(args + ["--config", cfg, "--out", str(out)])
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_jobs_is_a_region_scan_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--preset", "fig8_col3", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert main(["region-scan", "--preset", "fig3", "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"

    def test_all_presets_load_and_declare_commands(self):
        names = available_presets()
        expected = {
            "fig3", "fig4", "fig5", "fig6",
            "fig8_col1", "fig8_col2", "fig8_col3",
            "figA3_col1", "figA3_col2", "figA3_col3",
            "fig9_tri", "fig9_quad",
        }
        assert expected <= set(names)
        for name in names:
            doc = load_preset(name)
            assert doc["command"] in {"region-scan", "spectrum", "channels", "profile"}


class TestPresetContents:
    """The canned presets pin the reference parameter values."""

    def test_fig3_grid(self):
        doc = load_preset("fig3")
        assert doc["system"] == "tri"
        for axis in ("G1", "G2"):
            assert doc["gains"][axis] == {"start": 1.0, "stop": 3.0, "step": 0.02}

    def test_fig5_fixes_first_gain(self):
        doc = load_preset("fig5")
        assert doc["system"] == "quad" and doc["gains"]["G1"] == 1.1

    def test_fig6_fixes_later_gains(self):
        doc = load_preset("fig6")
        assert doc["gains"]["G2"] == 1.3 and doc["gains"]["G3"] == 1.1

    def test_fig9_fixed_gains(self):
        assert load_preset("fig9_tri")["gains"] == {"G2": 1.2}
        assert load_preset("fig9_quad")["gains"] == {"G2": 1.3, "G3": 1.1}

    @pytest.mark.parametrize(
        "name, case, n_peaks",
        [
            ("fig8_col2", "fwm1_s2", 2),
            ("fig8_col3", "rho2_e1", 3),
            ("figA3_col3", "rho1_e1", 2),
        ],
    )
    def test_spectrum_presets_reproduce_peak_counts(self, name, case, n_peaks):
        import numpy as np

        from delcfwm import AtomicParams, find_peaks

        doc = load_preset(name)
        assert doc["cases"] == [case]
        assert doc["params"]["delta1"] == 13.0 and doc["params"]["delta1p"] == 20.0
        grid_spec = doc["grid"]
        grid = grid_spec["start"] + grid_spec["step"] * np.arange(
            int(round((grid_spec["stop"] - grid_spec["start"]) / grid_spec["step"])) + 1
        )
        peaks = find_peaks(case, AtomicParams(**doc["params"]), grid)
        assert len(peaks) == n_peaks

    def test_fig3_region_structure_via_cli(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["region-scan", "--preset", "fig3", "--out", str(out)]) == 0
        regions = {line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]}
        assert {"I", "II", "III"} <= regions


TRI_LABELS = [
    "D12", "D13", "D23", "PPT:1|2", "PPT:1|3", "PPT:2|3", "PPT:1|23", "PPT:2|13", "PPT:3|12",
]
QUAD_LABELS = [
    "PPT:1|234", "PPT:2|134", "PPT:3|124", "PPT:4|123", "PPT:12|34", "PPT:13|24",
    "PPT:14|23", "PPT:1|3", "PPT:2|4", "PPT:3|4", "PPT:3|14", "PPT:4|23",
]
TRI_GRID = {
    "system": "tri",
    "gains": {axis: {"start": 1.0, "stop": 3.0, "step": 0.1} for axis in ("G1", "G2")},
    "criteria": TRI_LABELS,
}
QUAD_GRID = {
    "system": "quad",
    "gains": {axis: {"start": 1.0, "stop": 1.6, "step": 0.1} for axis in ("G1", "G2", "G3")},
    "criteria": QUAD_LABELS,
}


class TestGoldenBytes:
    """sha256 of whole output files, recorded with the row-by-row CSV writer
    and ``json.dumps(..., indent=2)``; the streaming emitter must match them.
    The PPT-bearing outputs (fig6, tri21, quad7, fig9_quad) were
    re-recorded with the closed-form and n x n singular-value PPT routes once
    ``test_kernel.py`` showed their values within 1e-11 of the eigvals
    oracle; only roundoff digits and verdicts of values within 1e-12 of 0
    changed. fig9_tri's PPT labels all take the closed form, so it kept
    its bytes."""

    @pytest.mark.parametrize(
        "args, config, digest",
        [
            (["region-scan", "--preset", "fig5"], None,
             "4b6ac7abbc2aa62a2b3ce1f5e812693944d6f371522f9dd58373afbf70458caa"),
            (["region-scan", "--preset", "fig6"], None,
             "e2a1a2466f1a7a7e306531bd4fbf176f96dbe8515ec2f8c4aaa69aac19fc8af9"),
            (["region-scan"], TRI_GRID,
             "db016e21d241873c8eb051fd3a8adaa3b3e022d97073b6e83d2cb0ce57851e7c"),
            (["region-scan", "--format", "json"], TRI_GRID,
             "4afee83407651c82474ab3d7ef3a26d5dbbc25039fabc16f93ceb529e634f14f"),
            (["region-scan"], QUAD_GRID,
             "825ceebea99e8c7f98e2a6aaf3c061f285d40911f233637097446d2dd542f47c"),
            (["region-scan", "--format", "json"], QUAD_GRID,
             "4be6b04ec6eb634bbfde3191167da0d3a70dcdd75884bd846874429c1ce807e8"),
            (["profile", "--preset", "fig9_tri"], None,
             "c6f0c057307cad026ff8da6c8e1add7307bbca52be9847115a4d01ee6a7a8a4a"),
            (["profile", "--preset", "fig9_quad"], None,
             "4e9b2287bd2a9d328bd2335f59c1c4a9abe53fb16972c1fa5733d510187e21a2"),
            (["spectrum", "--preset", "fig8_col3"], None,
             "c53986fe4c63fae054aa756f529a004b42c9a2df7324733870d9679db6fbacd6"),
            (["channels", "--format", "csv"], None,
             "722383d8574dc6a862812a14837e59a0e8b6a3a8eea483d5e0f323024789950a"),
        ],
        ids=[
            "fig5", "fig6", "tri21-csv", "tri21-json", "quad7-csv", "quad7-json",
            "fig9_tri", "fig9_quad", "fig8_col3", "channels-csv",
        ],
    )
    def test_output_sha256(self, tmp_path, args, config, digest):
        if config is not None:
            args = args + ["--config", write_config(tmp_path, config)]
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_validate_oracle_runs_without_scipy():
    """The number-basis oracle needs numpy only: with scipy blocked from
    import, both oracle checks still run and pass."""
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from delcfwm.cli import main\n"
        "sys.exit(main(['validate', '--filter', 'oracle']))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "2/2 checks passed" in proc.stdout


def test_benchmark_harness_names_exist():
    """Every function the benchmark's tracer binds or its output checks
    import by name exists, so a rename or deletion fails here instead of
    silently zeroing per-layer metrics or breaking an output check."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_launch", bench / "launch.py")
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    for layer, names in launch.STAGES.items():
        module = importlib.import_module(launch.LAYERS[layer])
        for name in names:
            assert callable(getattr(module, name, None)), f"{launch.LAYERS[layer]}.{name}"
    cli = importlib.import_module(launch.LAYERS["cli"])
    for name in launch.HANDLERS:
        assert callable(getattr(cli, name, None)), f"delcfwm.cli.{name}"

    # layers.py imports its sibling workloads.py by bare name, so its span
    # sets are read from its source rather than by importing it
    layers = ast.parse((bench / "layers.py").read_text(encoding="utf-8"))
    span_sets = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in layers.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("TRANSFORMS", "SPECTRA")
    }
    assert set(span_sets) == {"TRANSFORMS", "SPECTRA"}
    # process_metrics picks single spans out by comparing their names with these
    compared = {
        const.value
        for node in ast.walk(layers) if isinstance(node, ast.Compare)
        for const in ast.walk(node)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
        and const.value.partition(".")[0] in launch.LAYERS
    }
    assert {"fock.evolve_tms", "fock.covariance_from_state"} <= compared
    for span in set().union(*span_sets.values(), launch.ATTRS, compared):
        layer, name = span.split(".")
        module = importlib.import_module(launch.LAYERS[layer])
        assert callable(getattr(module, name, None)), f"{launch.LAYERS[layer]}.{name}"

    checks = ast.parse((bench / "checks.py").read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(checks)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "delcfwm"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
