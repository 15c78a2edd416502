import re
from pathlib import Path

import numpy as np
import pytest

from quadbvp.cli import (MODES, OUTPUT_ENV_VAR, load_config, main, parse_config_text,
                         run_experiment)
from quadbvp.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent

ROUNDTRIP_CONFIG = """\
[experiment]
mode = roundtrip
seed = 11
output = {out}

[symbols]
family = geometric
a = 0.5
boundary = zeta

[problem]
s = -1.25
n = 1
delta = 0.25

[grid]
N = 64
h = 1
"""


SMALL_CONFIGS = {
    "solve": ROUNDTRIP_CONFIG.replace("mode = roundtrip", "mode = {mode}"),
    "roundtrip": ROUNDTRIP_CONFIG.replace("mode = roundtrip", "mode = {mode}"),
    "power_gap": "[experiment]\nmode = {mode}\noutput = {out}\n"
                 "[sweep]\nh_values = 1 0.5\nk_max = 2\nsamples = 100\n",
    "kernel_gap": "[experiment]\nmode = {mode}\noutput = {out}\n"
                  "[sweep]\nh_values = 1 0.5\nnodes_per_window = 16\n",
    "commutator": "[experiment]\nmode = {mode}\noutput = {out}\n"
                  "[sweep]\nh_values = 0.5 0.25 0.125\nnodes_per_window = 8\n",
    "section_gap": "[experiment]\nmode = {mode}\noutput = {out}\n"
                   "[sweep]\nh_values = 0.5 0.25 0.125\nnodes_per_window = 8\n",
}


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_sections_keys_and_lines(self):
        parsed = parse_config_text("[a]\nx = 1\n\n# comment\n[b]\ny = 2 3\n")
        assert parsed["a"]["x"] == ("1", 2)
        assert parsed["b"]["y"] == ("2 3", 6)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("x = 1\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[a]\nnot a key value\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[a]\nx = 1\nx = 2\n")


class TestLoadConfig:
    def test_missing_required_field_names_it(self, tmp_path):
        text = ROUNDTRIP_CONFIG.format(out=tmp_path).replace("n = 1\n", "")
        with pytest.raises(ConfigError, match="missing required field 'n'"):
            load_config(write_config(tmp_path, text))

    def test_unknown_key_is_line_referenced(self, tmp_path):
        text = ROUNDTRIP_CONFIG.format(out=tmp_path) + "\n[grid]\n"
        text = text.replace("h = 1", "h = 1\nwat = 3")
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'wat'"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("old, new, pattern", [
        ("N = 64", "N = sixty", "bad value for 'N'"),
        ("boundary = zeta", "boundary = wat", r"line 9: unknown boundary 'wat'"),
        ("family = geometric", "family = wat", r"line 7: unknown family 'wat'"),
    ], ids=["N", "boundary", "family"])
    def test_bad_value_is_line_referenced(self, tmp_path, old, new, pattern):
        text = ROUNDTRIP_CONFIG.format(out=tmp_path).replace(old, new)
        with pytest.raises(ConfigError, match=pattern):
            load_config(write_config(tmp_path, text))

    def test_index_split_mismatch_rejected(self, tmp_path):
        text = ROUNDTRIP_CONFIG.format(out=tmp_path).replace("s = -1.25", "s = -2.0")
        with pytest.raises(ConfigError, match="n \\+ delta"):
            load_config(write_config(tmp_path, text))

    def test_order_list_length_must_match_n(self, tmp_path):
        text = """[experiment]\nmode = kernel_gap\n[continuous]\nn = 2\ns = 8.25\ndelta = -0.25\nbetas = 0\ngammas = 0 -1\n"""
        with pytest.raises(ConfigError, match="betas and gammas"):
            load_config(write_config(tmp_path, text))

    def test_env_var_overrides_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "elsewhere"))
        cfg = load_config(write_config(tmp_path, ROUNDTRIP_CONFIG.format(out=tmp_path)))
        assert cfg.output == tmp_path / "elsewhere"

    def test_comparison_defaults_fill_in(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "[experiment]\nmode = commutator\n"))
        assert cfg.s == 2.25
        assert cfg.n == 1
        assert cfg.h_values == (0.5, 0.25, 0.125, 0.0625)


class TestRunCommand:
    def test_roundtrip_run_passes_and_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ROUNDTRIP_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] roundtrip_rel_error" in out
        csv_text = (tmp_path / "out" / "roundtrip.csv").read_text()
        assert csv_text.startswith("# schema=roundtrip-v1\n")
        assert csv_text.splitlines()[1] == "h,N,rel_error,condition,residual"
        summary = (tmp_path / "out" / "roundtrip_summary.txt").read_text()
        assert "gate_roundtrip_rel_error = PASS" in summary
        assert "gate_solve_residual = PASS" in summary
        assert "all_gates = PASS" in summary

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg1 = write_config(tmp_path, ROUNDTRIP_CONFIG.format(out=tmp_path / "r1"), "a.ini")
        cfg2 = write_config(tmp_path, ROUNDTRIP_CONFIG.format(out=tmp_path / "r2"), "b.ini")
        assert main(["run", str(cfg1)]) == 0
        assert main(["run", str(cfg2)]) == 0
        assert (tmp_path / "r1" / "roundtrip.csv").read_bytes() == \
            (tmp_path / "r2" / "roundtrip.csv").read_bytes()

    def test_missing_field_exits_2(self, tmp_path, capsys):
        text = ROUNDTRIP_CONFIG.format(out=tmp_path).replace("n = 1\n", "")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "missing required field 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("family, params, missing", [
        ("geometric", "a = 0.5\n", "a"),
        ("shifted_zeta", "c = 5\nkappa = 1\n", "c"),
        ("shifted_zeta", "c = 5\nkappa = 1\n", "kappa"),
    ], ids=["a", "c", "kappa"])
    def test_missing_family_parameter_exits_2(self, tmp_path, capsys,
                                              family, params, missing):
        kept = "".join(line + "\n" for line in params.splitlines()
                       if not line.startswith(missing + " "))
        text = ROUNDTRIP_CONFIG.format(out=tmp_path).replace(
            "family = geometric\na = 0.5\n", f"family = {family}\n{kept}")
        if family == "shifted_zeta":
            text = text.replace("s = -1.25", "s = -0.25")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert f"missing required field '{missing}' for family {family}" in err
        assert "[symbols]" in err

    def test_singular_problem_exits_3(self, tmp_path, capsys):
        text = ROUNDTRIP_CONFIG.format(out=tmp_path / "out")
        text = text.replace("boundary = zeta", "boundary = identity")
        text = text.replace("s = -1.25", "s = -2.25").replace("n = 1", "n = 2")
        assert main(["run", str(write_config(tmp_path, text))]) == 3
        assert "not uniquely solvable" in capsys.readouterr().err

    def test_solve_mode_reports_interior_residuals(self, tmp_path):
        text = ROUNDTRIP_CONFIG.format(out=tmp_path / "out")
        text = text.replace("mode = roundtrip", "mode = solve")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        lines = (tmp_path / "out" / "solve.csv").read_text().splitlines()
        assert lines[1] == "h,N,point_i1,point_i2,abs_residual"
        assert len(lines) == 2 + 25

    def test_power_gap_mode_all_ratios_bounded(self, tmp_path):
        text = ("[experiment]\nmode = power_gap\nseed = 3\n"
                f"output = {tmp_path / 'out'}\n"
                "[sweep]\nh_values = 1 0.5 0.25\nk_max = 3\nsamples = 500\n")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        lines = (tmp_path / "out" / "power_gap.csv").read_text().splitlines()[2:]
        assert len(lines) == 9
        for line in lines:
            ratio, violations = line.split(",")[-2:]
            assert float(ratio) <= 1.0
            assert violations == "0"

    def test_kernel_gap_mode_passes_on_small_grid(self, tmp_path):
        text = ("[experiment]\nmode = kernel_gap\n"
                f"output = {tmp_path / 'out'}\n"
                "[sweep]\nh_values = 1 0.5\nnodes_per_window = 32\n")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        lines = (tmp_path / "out" / "kernel_gap.csv").read_text().splitlines()
        assert lines[0] == "# schema=kernel_gap-v1"
        # 2 h values x 4 blocks x 4 families
        assert len(lines) == 2 + 32

    def test_commutator_mode_passes_on_small_grid(self, tmp_path):
        text = ("[experiment]\nmode = commutator\n"
                f"output = {tmp_path / 'out'}\n"
                "[sweep]\nh_values = 0.5 0.25 0.125\nnodes_per_window = 16\n")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        summary = (tmp_path / "out" / "commutator_summary.txt").read_text()
        assert "gate_commutator_slope = PASS" in summary
        assert "epsilon = 1.25" in summary

    @pytest.mark.parametrize("mode", list(MODES))
    def test_every_csv_cell_parses_as_its_column_type(self, tmp_path, mode):
        int_columns = {"N", "point_i1", "point_i2", "k", "j", "violations", "window_nodes"}
        cfg = load_config(write_config(tmp_path, SMALL_CONFIGS[mode].format(
            mode=mode, out=tmp_path / "out")))
        _, csv_path, _ = run_experiment(cfg)
        lines = csv_path.read_text().splitlines()
        columns = lines[1].split(",")
        assert lines[0] == f"# schema={mode}-v1" and len(lines) > 2
        for line in lines[2:]:
            cells = line.split(",")
            assert len(cells) == len(columns)
            for column, cell in zip(columns, cells):
                if column in int_columns:
                    int(cell)
                elif column != "family":
                    float(cell)

    def test_readme_example_runs_verbatim(self, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "out"))
        path = write_config(tmp_path, block)
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path)]) == 0

    def test_section_gap_mode_passes_on_small_grid(self, tmp_path):
        text = ("[experiment]\nmode = section_gap\n"
                f"output = {tmp_path / 'out'}\n"
                "[sweep]\nh_values = 0.5 0.25 0.125\nnodes_per_window = 16\n")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        summary = (tmp_path / "out" / "section_gap_summary.txt").read_text()
        assert "gate_section_gap_slope = PASS" in summary


class TestOtherCommands:
    def test_validate_accepts_shipped_configs(self, repo_configs):
        for cfg in repo_configs:
            assert main(["validate", str(cfg)]) == 0

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        bad = write_config(tmp_path, "[experiment]\nmode = wat\n")
        assert main(["validate", str(bad)]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_schema_prints_columns_and_gates(self, capsys):
        assert main(["schema", "roundtrip"]) == 0
        out = capsys.readouterr().out
        assert "# schema=roundtrip-v1" in out
        assert "rel_error" in out
        assert "gates:" in out

    def test_schema_unknown_mode_exits_2(self, capsys):
        assert main(["schema", "wat"]) == 2

    def test_schema_lists_exactly_the_accepted_keys(self, tmp_path, capsys):
        listed = {}
        for mode in MODES:
            assert main(["schema", mode]) == 0
            listed[mode] = set(re.findall(r"^  \[(\w+)\] (\w+):", capsys.readouterr().out,
                                          re.MULTILINE))
        candidates = set().union(*listed.values()) | {("sweep", "wat"), ("wat", "x")}
        for mode in MODES:
            accepted = set()
            for section, key in candidates - {("experiment", "mode")}:
                text = f"[experiment]\nmode = {mode}\n[{section}]\n{key} = 1\n"
                try:
                    load_config(write_config(tmp_path, text))
                except ConfigError as exc:
                    if re.search("unknown (key|section)", str(exc)):
                        continue
                accepted.add((section, key))
            assert listed[mode] == accepted | {("experiment", "mode")}, mode


@pytest.fixture
def repo_configs():
    configs = sorted((ROOT / "configs").glob("*.ini"))
    assert configs, "shipped configs missing"
    return configs
