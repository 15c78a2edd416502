import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadbvp import cli, system
from quadbvp.cli import (MODES, OUTPUT_ENV_VAR, load_config, main, parse_config_text,
                         run_experiment)
from quadbvp.comparison import STRIP_ENTRIES_MAX, aligned_line_grid, window_mask
from quadbvp.errors import ConfigError
from conftest import ROOT, load_script

# the shipped configs' outputs as scripts/run_all.py writes them to out/,
# kept as the reference a rerun is compared with
REFERENCE_OUT = Path(__file__).resolve().parent / "reference_out"

SOLVE_CONFIG = """\
[experiment]
mode = solve
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
    "solve": SOLVE_CONFIG.replace("mode = solve", "mode = {mode}"),
    "kernel_gap": "[experiment]\nmode = {mode}\noutput = {out}\n"
                  "[sweep]\nh_values = 1 0.5\nnodes_per_window = 16\n",
    "commutator": "[experiment]\nmode = {mode}\noutput = {out}\n"
                  "[sweep]\nh_values = 0.5 0.25 0.125\nnodes_per_window = 8\n",
    "section_gap": "[experiment]\nmode = {mode}\noutput = {out}\n[continuous]\nn = 2\n"
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
        text = SOLVE_CONFIG.format(out=tmp_path).replace("n = 1\n", "")
        with pytest.raises(ConfigError, match="missing required field 'n'"):
            load_config(write_config(tmp_path, text))

    def test_unknown_key_is_line_referenced(self, tmp_path):
        text = SOLVE_CONFIG.format(out=tmp_path) + "\n[grid]\n"
        text = text.replace("h = 1", "h = 1\nwat = 3")
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'wat'"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("old, new, pattern", [
        ("N = 64", "N = sixty", "bad value for 'N'"),
        ("boundary = zeta", "boundary = wat", r"line 9: unknown boundary 'wat'"),
        ("family = geometric", "family = wat", r"line 7: unknown family 'wat'"),
        ("seed = 11", "seed = -1",
         r"line 3: bad value for 'seed': must be a non-negative integer, got -1"),
    ], ids=["N", "boundary", "family", "negative-seed"])
    def test_bad_value_is_line_referenced(self, tmp_path, old, new, pattern):
        text = SOLVE_CONFIG.format(out=tmp_path).replace(old, new)
        with pytest.raises(ConfigError, match=pattern):
            load_config(write_config(tmp_path, text))

    def test_index_split_mismatch_rejected(self, tmp_path):
        text = SOLVE_CONFIG.format(out=tmp_path).replace("s = -1.25", "s = -2.0")
        with pytest.raises(ConfigError, match="n \\+ delta"):
            load_config(write_config(tmp_path, text))

    def test_order_list_length_must_match_n(self, tmp_path):
        text = """[experiment]\nmode = kernel_gap\n[continuous]\nn = 2\ns = 8.25\ndelta = -0.25\nbetas = 0\ngammas = 0 -1\n"""
        with pytest.raises(ConfigError, match=re.escape("betas in [continuous] must have "
                                                        "n = 2 entries, got 1")):
            load_config(write_config(tmp_path, text))
        text = text.replace("betas = 0\n", "betas = 0 -1\n").replace("gammas = 0 -1", "gammas = 0 -1 1")
        with pytest.raises(ConfigError, match=re.escape("gammas in [continuous] must have "
                                                        "n = 2 entries, got 3")):
            load_config(write_config(tmp_path, text))

    def test_env_var_overrides_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "elsewhere"))
        cfg = load_config(write_config(tmp_path, SOLVE_CONFIG.format(out=tmp_path)))
        assert cfg.output == tmp_path / "elsewhere"

    def test_comparison_defaults_fill_in(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "[experiment]\nmode = commutator\n"))
        assert cfg.s == 2.25
        assert cfg.n == 1
        assert cfg.h_values == (0.5, 0.25, 0.125, 0.0625)


class TestRunCommand:
    def test_solve_run_passes_and_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLVE_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] roundtrip_rel_error" in out and "[PASS] solve_residual" in out
        csv_text = (tmp_path / "out" / "solve.csv").read_text()
        assert csv_text.startswith("# schema=solve-v1\n")
        assert csv_text.splitlines()[1] == "h,N,point_i1,point_i2,abs_residual"
        summary = (tmp_path / "out" / "solve_summary.txt").read_text()
        assert re.findall(r"^gate_(\w+) = PASS", summary, re.M) == [
            "roundtrip_rel_error", "solve_residual"]
        assert "all_gates = PASS" in summary

    def test_a_solver_that_scales_its_traces_fails_the_roundtrip_gate(self, tmp_path, capsys,
                                                                     monkeypatch):
        # negative control: traces returned 1.5 times too large leave the
        # solution's interior residuals at rounding level, as for any
        # traces, but not the recovery of the planted ones
        solve = system.solve_block_system

        def scaled(*args, **kwargs):
            traces, report = solve(*args, **kwargs)
            return system.TraceVector(traces.grid, 1.5 * traces.values), report

        monkeypatch.setattr(system, "solve_block_system", scaled)
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "out"))
        assert main(["run", str(ROOT / "configs" / "solve.ini")]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] roundtrip_rel_error: rel_error 5.000e-01 vs 1e-06" in out
        assert "[PASS] solve_residual" in out
        summary = (tmp_path / "out" / "solve_summary.txt").read_text()
        assert "all_gates = FAIL" in summary
        worst = float(re.search(r"^max_interior_residual = (\S+)$", summary, re.M).group(1))
        assert worst <= 1e-13

    @pytest.mark.parametrize("old, new, choices", [
        ("mode = solve", "mode = roundtrip",
         "unknown mode 'roundtrip'; expected one of solve, kernel_gap, commutator, "
         "section_gap"),
        ("boundary = zeta", "boundary = identity",
         "unknown boundary 'identity'; expected one of zeta, row_trace"),
    ], ids=["roundtrip-mode", "identity-boundary"])
    def test_retired_choices_exit_2_at_validate_and_run(self, tmp_path, capsys, old, new,
                                                        choices):
        text = SOLVE_CONFIG.format(out=tmp_path / "out").replace(old, new)
        err = self.stops_at_validate_and_run(tmp_path, capsys, text)
        assert re.fullmatch(rf"config error: line \d+: {re.escape(choices)}\n", err)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg1 = write_config(tmp_path, SOLVE_CONFIG.format(out=tmp_path / "r1"), "a.ini")
        cfg2 = write_config(tmp_path, SOLVE_CONFIG.format(out=tmp_path / "r2"), "b.ini")
        assert main(["run", str(cfg1)]) == 0
        assert main(["run", str(cfg2)]) == 0
        assert (tmp_path / "r1" / "solve.csv").read_bytes() == \
            (tmp_path / "r2" / "solve.csv").read_bytes()

    def test_missing_field_exits_2(self, tmp_path, capsys):
        text = SOLVE_CONFIG.format(out=tmp_path).replace("n = 1\n", "")
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
        text = SOLVE_CONFIG.format(out=tmp_path).replace(
            "family = geometric\na = 0.5\n", f"family = {family}\n{kept}")
        if family == "shifted_zeta":
            text = text.replace("s = -1.25", "s = -0.25")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert f"missing required field '{missing}' for family {family}" in err
        assert "[symbols]" in err

    @pytest.mark.parametrize("mode, h_values, reason", [
        pytest.param(mode, h_values, reason, id=f"{case}-{mode}")
        for case, h_values, reason in [("zero", "1 0.5 0", "positive"),
                                       ("negative", "0.5 0.25 -0.125", "positive"),
                                       ("increasing", "0.25 0.5 1", "strictly decreasing")]
        for mode in ["kernel_gap", "commutator", "section_gap"]
    ] + [
        # a slope fit needs three sizes, a growth two
        pytest.param("commutator", "0.5 0.25", "at least 3", id="two-commutator"),
        pytest.param("section_gap", "0.5 0.25", "at least 3", id="two-section_gap"),
        pytest.param("kernel_gap", "0.5", "at least 2", id="one-kernel_gap"),
    ])
    def test_bad_mesh_sizes_exit_2_line_referenced(self, tmp_path, capsys, mode,
                                                   h_values, reason):
        text = (f"[experiment]\nmode = {mode}\noutput = {tmp_path / 'out'}\n"
                f"[sweep]\nh_values = {h_values}\n")
        path = str(write_config(tmp_path, text))
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert "line 5: bad value for 'h_values'" in err
            assert reason in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unaligned_section_gap_sweep_exits_2(self, tmp_path, capsys, command):
        text = (f"[experiment]\nmode = section_gap\noutput = {tmp_path / 'out'}\n"
                "[sweep]\nh_values = 0.5 0.3 0.2 0.1\n")
        assert main([command, str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "at h = 0.3 " in err
        assert not (tmp_path / "out").exists()
        # the commutator's windows are restrictions: it takes the sweep
        text = text.replace("section_gap", "commutator")
        assert main(["validate", str(write_config(tmp_path, text))]) == 0

    def test_aligned_non_halving_section_gap_sweep_runs(self, tmp_path):
        text = (f"[experiment]\nmode = section_gap\noutput = {tmp_path / 'out'}\n"
                "[sweep]\nh_values = 0.6 0.3 0.2\n")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        rows = (tmp_path / "out" / "section_gap.csv").read_text().splitlines()[2:]
        assert [row.split(",")[1] for row in rows] == ["32", "64", "96"]

    @pytest.mark.parametrize("mode", ["kernel_gap", "commutator", "section_gap"])
    @pytest.mark.parametrize("key, value, reason", [
        ("nodes_per_window", "31", "positive even"),
        ("nodes_per_window", "-4", "positive even"),
        ("nodes_per_window", "0", "positive even"),
        ("lambda_factor", "0.5", "finite and >= 1"),
        ("lambda_factor", "nan", "finite and >= 1"),
        ("lambda_factor", "inf", "finite and >= 1"),
    ], ids=["odd", "negative", "zero", "narrow", "nan", "inf"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_sweep_grid_exits_2_line_referenced(self, tmp_path, capsys, mode,
                                                    key, value, reason, command):
        text = (f"[experiment]\nmode = {mode}\noutput = {tmp_path / 'out'}\n"
                f"[sweep]\n{key} = {value}\n")
        assert main([command, str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert f"line 5: bad value for '{key}'" in err
        assert reason in err

    @pytest.mark.parametrize("mode, needs", [
        ("commutator", "commutator sweep needs s - left order > 2.0"),
        ("section_gap", "section gap sweep needs s - bottom order > 3.0"),
        ("kernel_gap", "kernel gap ratios needs s - bottom order > 2.0")])
    def test_order_hypotheses_fail_at_validate_as_at_run(self, tmp_path, capsys, mode, needs):
        # the build opens with the checks the measurement opens with, so a
        # config that validates does not then fail them at run
        text = (f"[experiment]\nmode = {mode}\noutput = {tmp_path / 'out'}\n"
                "[continuous]\ns = 1.5\n")
        path = str(write_config(tmp_path, text))
        errors = []
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("config error:") and needs in errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("s", ["inf", "nan"])
    def test_non_finite_s_exits_2_at_validate(self, tmp_path, capsys, s):
        text = f"[experiment]\nmode = commutator\n[continuous]\ns = {s}\n"
        assert main(["validate", str(write_config(tmp_path, text))]) == 2
        assert f"s must be finite, got {s}" in capsys.readouterr().err

    def test_overflowing_truncation_exits_2_at_validate(self, tmp_path, capsys):
        # a finite lambda_factor whose line is wider than the largest float;
        # a large line that fits would be allocated by run, so none is tried
        text = ("[experiment]\nmode = commutator\n"
                "[sweep]\nlambda_factor = 1e307\n")
        assert main(["validate", str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "truncation half-width inf" in err

    @pytest.mark.parametrize("mode", ["commutator", "section_gap", "kernel_gap"])
    def test_line_too_long_to_allocate_exits_2_at_validate_and_run(self, tmp_path, capsys,
                                                                   mode):
        # a finite line of 1e22 and more nodes, which np.arange cannot make:
        # both commands stop at the node count with the same message
        text = f"[experiment]\nmode = {mode}\noutput = {tmp_path / 'out'}\n" \
               "[sweep]\nlambda_factor = 1e20\n"
        path = write_config(tmp_path, text)
        errs = []
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert re.fullmatch(r"config error: lambda_factor \* nodes_per_window \* max\(h_values\) "
                            r"/ min\(h_values\) = 1e\+20 \* \d+ \* [\d.]+ / [\d.]+ makes a line "
                            r"of \d{22,} nodes, more than LINE_NODES_MAX = 1048576\n", errs[0])
        assert not (tmp_path / "out").exists()

    def test_line_ceiling_names_every_key_that_sets_the_node_count(self, tmp_path, capsys):
        # a line too long from nodes_per_window alone, at the default
        # lambda_factor: the message gives the three keys and their values
        text = SMALL_CONFIGS["commutator"].format(mode="commutator", out=tmp_path / "out")
        text = text.replace("nodes_per_window = 8", "nodes_per_window = 131072")
        assert main(["validate", str(write_config(tmp_path, text))]) == 2
        assert capsys.readouterr().err == (
            "config error: lambda_factor * nodes_per_window * max(h_values) / min(h_values) "
            "= 4 * 131072 * 0.5 / 0.125 makes a line of 2097152 nodes, more than "
            "LINE_NODES_MAX = 1048576\n")

    @pytest.mark.parametrize("mode, key, value", [
        ("solve", "N", "1000000"), ("solve", "N", str(cli.GRID_NODES_MAX + 2)),
        ("solve", "n", "1000000"), ("solve", "n", str(cli.PROBLEM_N_MAX + 1)),
        ("section_gap", "n", "100"), ("section_gap", "n", str(cli.PROBLEM_N_MAX + 1)),
    ], ids=["N-huge", "N-over", "n-huge", "n-over", "continuous-n-huge", "continuous-n-over"])
    def test_size_over_its_ceiling_exits_2_at_validate_and_run(self, tmp_path, capsys,
                                                               mode, key, value):
        # a size whose arrays no run could allocate, terabytes for the huge
        # ones: both commands stop at its field, naming the key, and write
        # nothing
        text = SMALL_CONFIGS[mode].format(mode=mode, out=tmp_path / "out")
        path = write_config(tmp_path, re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text))
        errs = []
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert re.match(rf"config error: line \d+: bad value for '{key}': must be .*, "
                        rf"got {value}\n", errs[0])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, replaced", [
        ("solve", {"N = 64": f"N = {cli.GRID_NODES_MAX}"}),
        ("solve", {"n = 1": f"n = {cli.PROBLEM_N_MAX}",
                   "s = -1.25": f"s = {-cli.PROBLEM_N_MAX - 0.25}"}),
        ("section_gap", {"n = 2": f"n = {cli.PROBLEM_N_MAX}\nbetas =" + " 0" * cli.PROBLEM_N_MAX
                         + "\ngammas =" + " 0" * cli.PROBLEM_N_MAX}),
    ], ids=["N", "n", "continuous-n"])
    def test_size_at_its_ceiling_validates(self, tmp_path, mode, replaced):
        text = SMALL_CONFIGS[mode].format(mode=mode, out=tmp_path / "out")
        for old, new in replaced.items():
            assert old in text
            text = text.replace(old, new)
        assert main(["validate", str(write_config(tmp_path, text))]) == 0

    def test_ceilings_leave_room_for_every_shipped_and_benchmarked_size(self):
        # each ceiling at least 4 times the largest size a shipped config or
        # a benchmark workload runs, the strip ceiling 8 times, and the mesh
        # sizes far inside their range
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        configs = [load_config(path) for path in sorted((ROOT / "configs").glob("*.ini"))]
        sizes = [size for ladder in workloads.SOLVE_LADDER.values() for size in ladder]
        Ns = [N for _, N in sizes] + [N for Ns in workloads.ROUNDTRIP_N.values() for N in Ns]
        Ns += [cfg.N for cfg in configs if cfg.mode in cli.LATTICE]
        ns = [n for n, _ in sizes] + list(workloads.ROUNDTRIP_ORDERS)
        ns += [cfg.n for cfg in configs if cfg.mode in cli.LATTICE + cli.RATES]
        assert max(Ns) == 384 and max(ns) == 2
        for largest, ceiling in ((max(Ns), cli.GRID_NODES_MAX), (max(ns), cli.PROBLEM_N_MAX)):
            assert 4 * largest <= ceiling
        # 4 n^2 R N strip entries, R and N counted on the nodes themselves;
        # the rate workload runs the shipped rate configs
        assert set(workloads.RATE_CONFIGS["tiny"]) <= set(workloads.RATE_CONFIGS["full"])
        entries = {}
        for cfg in configs:
            if cfg.mode in cli.RATES:  # kernel_gap takes a line per mesh size
                for hs in ([(h,) for h in cfg.h_values] if cfg.mode == "kernel_gap"
                           else [cfg.h_values]):
                    grid = aligned_line_grid(hs, cfg.nodes_per_window, cfg.lambda_factor)
                    R = int(window_mask(grid, min(hs)).sum())
                    entries[cfg.mode] = max(entries.get(cfg.mode, 0),
                                            4 * cfg.n ** 2 * R * grid.nodes_count)
        assert entries == {"commutator": 2 ** 20, "section_gap": 2 ** 22, "kernel_gap": 2 ** 18}
        assert set(workloads.RATE_CONFIGS["full"]) == set(entries)
        assert 8 * max(entries.values()) <= STRIP_ENTRIES_MAX
        hs = [cfg.h for cfg in configs if cfg.mode in cli.LATTICE] + list(workloads.ROUNDTRIP_H)
        assert sorted(set(hs)) == [0.5, 1.0]
        assert cli.GRID_H_RANGE[0] * 1e100 <= min(hs) and max(hs) * 1e100 <= cli.GRID_H_RANGE[1]

    @staticmethod
    def stops_at_validate_and_run(tmp_path, capsys, text):
        """Both commands exit 2 with the same message and write nothing;
        returns the message."""
        path = write_config(tmp_path, text)
        errs = []
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].startswith("config error:")
        assert not (tmp_path / "out").exists()
        return errs[0]

    @pytest.mark.parametrize("mode, replaced", [
        ("commutator", {"nodes_per_window = 32": "nodes_per_window = 65536",
                        "lambda_factor = 4": "lambda_factor = 1"}),
        ("section_gap", {"n = 2": "n = 8", "betas = 0 -1": "betas =" + " 0" * 8,
                         "gammas = 0 -1": "gammas =" + " 0" * 8}),
        ("kernel_gap", {"nodes_per_window = 64": "nodes_per_window = 1024"}),
    ], ids=["commutator-window", "section_gap-n", "kernel_gap-window"])
    def test_sweep_over_the_strip_ceiling_exits_2_at_validate_and_run(self, tmp_path, capsys,
                                                                      mode, replaced):
        # a shipped rate config made too large by one or two keys: pair
        # strips of 8 TiB, or twice the ceiling; the message
        # names every key that sizes them
        text = (ROOT / "configs" / f"{mode}.ini").read_text()
        text = re.sub(r"(?m)^output = .*$", f"output = {tmp_path / 'out'}", text)
        for old, new in replaced.items():
            assert old in text
            text = text.replace(old, new)
        err = self.stops_at_validate_and_run(tmp_path, capsys, text)
        assert f"more than STRIP_ENTRIES_MAX = {2 ** 25}" in err
        for key in ("n = ", "nodes_per_window", "h_values", "lambda_factor"):
            assert key in err, key

    def test_kernel_gap_is_sized_per_mesh_size(self, tmp_path):
        # its run takes one line per mesh size, 256 nodes here: a sweep
        # down to h = 1/64 validates, where one line for the whole sweep
        # would hold 2^14 nodes and its strips 2^30 entries
        text = (ROOT / "configs" / "kernel_gap.ini").read_text()
        text = text.replace("h_values = 1 0.5 0.25", "h_values = 1 0.5 0.25 0.125 0.0625 0.03125 "
                                                      "0.015625")
        assert main(["validate", str(write_config(tmp_path, text))]) == 0

    @pytest.mark.parametrize("h", ["1e-200", "1e-320", "1e300", "0", "-1"])
    def test_mesh_size_outside_its_range_exits_2_at_validate_and_run(self, tmp_path, capsys,
                                                                     h):
        # 1e-200 overflows the seeded bumps' squared widths, 1e-320 the
        # torus half width pi/h, and 1e300 underflows the squared widths
        # to 0, NaN data: each is stopped at its field
        text = SOLVE_CONFIG.format(out=tmp_path / "out").replace("h = 1", f"h = {h}")
        err = self.stops_at_validate_and_run(tmp_path, capsys, text)
        assert re.match(r"config error: line \d+: bad value for 'h': must be a mesh size h "
                        rf"from 1e-150 to 1e\+150, got {re.escape(repr(float(h)))}\n$", err)

    @pytest.mark.parametrize("old, new, named", [
        ("h = 1", "h = nan", "mesh size h"), ("h = 1", "h = inf", "mesh size h"),
        ("a = 0.5", "a = nan", "a=nan"),
        ("family = geometric\na = 0.5", "family = shifted_zeta\nc = nan\nkappa = 1",
         "c=nan"),
        ("family = geometric\na = 0.5", "family = shifted_zeta\nc = inf\nkappa = 1",
         "c=inf"),
        ("family = geometric\na = 0.5", "family = shifted_zeta\nc = 5\nkappa = nan",
         "kappa=nan"),
    ], ids=["h-nan", "h-inf", "a-nan", "c-nan", "c-inf", "kappa-nan"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_symbol_parameter_exits_2(self, tmp_path, capsys, old, new,
                                                 named, command):
        text = SOLVE_CONFIG.format(out=tmp_path / "out").replace(old, new)
        if "shifted_zeta" in new:
            text = text.replace("s = -1.25", "s = -0.25")
        assert main([command, str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "out").exists()

    def test_singular_problem_exits_3(self, tmp_path, capsys):
        text = SOLVE_CONFIG.format(out=tmp_path / "out").replace(
            "family = geometric\na = 0.5", "family = shifted_zeta\nc = 5\nkappa = 1")
        text = text.replace("n = 1", "n = 2")
        assert main(["run", str(write_config(tmp_path, text))]) == 3
        err = capsys.readouterr().err
        assert "not uniquely solvable" in err
        # at n = 2 the difference-power operators leave a per-node left
        # multiplier matrix singular; the message names the node
        assert re.search(r"left multiplier matrix at node xi2=\S+ has condition inf", err)
        assert not (tmp_path / "out").exists()

    @staticmethod
    def shipped_solve(tmp_path, h, N, replaced=()):
        """configs/solve.ini at mesh size ``h`` and ``N`` nodes, with the
        ``replaced`` lines, written under ``tmp_path`` with its output
        there too."""
        text = (ROOT / "configs" / "solve.ini").read_text()
        text = text.replace("h = 1\n", f"h = {h}\n").replace("N = 128\n", f"N = {N}\n")
        text = re.sub(r"(?m)^output = .*$", f"output = {tmp_path / 'out'}", text)
        for old, new in replaced:
            assert old in text
            text = text.replace(old, new)
        return str(write_config(tmp_path, text))

    @pytest.mark.parametrize("N", [16, 256])
    @pytest.mark.parametrize("h", ["1e-8", "1e-10", "1e-70", "1e10"])
    def test_shipped_solve_passes_at_extreme_mesh_sizes(self, tmp_path, h, N):
        # the system is h^-2 times the one at h = 1, and its condition the
        # same; the capacitance matrix's gauge rows scale like h^2, and
        # inverted without equilibrating its rows the solve leaked into the
        # gauge: rel_error 0.18 at h = 1e-8 and 0.031 at 1e-10
        conditions = []
        for mesh in (h, 1):
            assert main(["run", self.shipped_solve(tmp_path, mesh, N)]) == 0
            summary = (tmp_path / "out" / "solve_summary.txt").read_text()
            assert "all_gates = PASS" in summary
            conditions.append(float(re.search(r"^condition = (\S+)$", summary, re.M).group(1)))
        assert math.isclose(*conditions, rel_tol=1e-6)

    @pytest.mark.parametrize("N", [16, 256])
    @pytest.mark.parametrize("h", ["1e-77", "1e80"])
    def test_condition_estimate_out_of_float_range_exits_3(self, tmp_path, capsys, h, N):
        # the condition estimate's Gram matrix squares the system's scale,
        # h^-2, past the float range, and LAPACK fails on it: a numerical
        # failure naming the estimate, with nothing written.  At N = 256
        # and h = 1e-77 the kernels' squared row norms overflow first, and
        # their norm is taken on the scaled cores
        assert main(["run", self.shipped_solve(tmp_path, h, N)]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure in mode solve: the deflated condition estimate failed: "
            "LAPACK error LinAlgError(")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("N", [16, 256])
    @pytest.mark.parametrize("h", ["1e-77", "1e80"])
    def test_two_row_traces_out_of_float_range_exit_3(self, tmp_path, capsys, h, N):
        # at n = 2 the row-trace multipliers pair powers 0 and 1 of zeta,
        # whose condition grows like 1/h or h: a numerical failure naming
        # the node, with nothing written
        replaced = (("boundary = zeta", "boundary = row_trace"),
                    ("s = -1.25\nn = 1", "s = -2.25\nn = 2"))
        assert main(["run", self.shipped_solve(tmp_path, h, N, replaced)]) == 3
        assert re.match(r"numerical failure in mode solve: bottom multiplier matrix at node "
                        r"xi1=\S+ has condition \S+ > 1e\+12", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # a size inside the ceilings that still does not fit in memory is a
        # config error, reported without a traceback; nothing is allocated
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "manufactured_roundtrip", out_of_memory)
        text = SOLVE_CONFIG.format(out=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: mode solve ran out of memory")
        assert not (tmp_path / "out").exists()

    def test_solve_mode_reports_the_multiplier_condition(self, tmp_path):
        text = SOLVE_CONFIG.format(out=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        summary = (tmp_path / "out" / "solve_summary.txt").read_text()
        value = re.search(r"^multiplier_condition = (\S+)$", summary, re.M).group(1)
        assert 1.0 <= float(value) < 1e12
        # the mode plants and recovers traces, and reports how well
        rel_error = re.search(r"^rel_error = (\S+)$", summary, re.M).group(1)
        assert 0.0 <= float(rel_error) <= 1e-6

    def test_solve_mode_reports_the_kernel_ranks(self, tmp_path):
        text = SOLVE_CONFIG.format(out=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        summary = (tmp_path / "out" / "solve_summary.txt").read_text()
        n = int(re.search(r"^n = (\d+)$", text, re.M).group(1))
        N = int(re.search(r"^N = (\d+)$", text, re.M).group(1))
        for edge in ("bottom", "left"):
            rank = re.search(rf"^kernel_rank_{edge} = (\S+)$", summary, re.M).group(1)
            assert 1 <= int(rank) < n * N

    def test_solve_mode_reports_interior_residuals(self, tmp_path):
        text = SOLVE_CONFIG.format(out=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        lines = (tmp_path / "out" / "solve.csv").read_text().splitlines()
        assert lines[1] == "h,N,point_i1,point_i2,abs_residual"
        assert len(lines) == 2 + 25

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

    def test_degenerate_sweep_names_the_first_bad_norm(self, tmp_path, capsys):
        # lambda_factor 1 truncates the line at the finest window, so only
        # the last commutator norm vanishes
        text = ("[experiment]\nmode = commutator\n"
                f"output = {tmp_path / 'out'}\n"
                "[sweep]\nh_values = 0.5 0.25 0.125 0.0625\nnodes_per_window = 8\n"
                "lambda_factor = 1\n")
        assert main(["run", str(write_config(tmp_path, text))]) == 1
        detail = "degenerate sweep: norm 0.0 at h = 0.0625 is not positive and finite"
        assert f"[FAIL] commutator_slope: {detail}" in capsys.readouterr().out
        summary = (tmp_path / "out" / "commutator_summary.txt").read_text()
        assert f"gate_commutator_slope = FAIL ({detail})" in summary
        rows = (tmp_path / "out" / "commutator.csv").read_text().splitlines()[2:]
        assert [float(r.split(",")[2]) > 0.0 for r in rows] == [True, True, True, False]

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

    def test_readme_library_example_runs_verbatim(self, capsys):
        readme = (ROOT / "README.md").read_text()
        block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["report"].rel_error <= 1e-6
        rel_error, condition = map(float, capsys.readouterr().out.split())
        assert rel_error == namespace["report"].rel_error

    def test_section_gap_mode_passes_on_small_grid(self, tmp_path):
        text = ("[experiment]\nmode = section_gap\n"
                f"output = {tmp_path / 'out'}\n"
                "[sweep]\nh_values = 0.5 0.25 0.125\nnodes_per_window = 16\n")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        summary = (tmp_path / "out" / "section_gap_summary.txt").read_text()
        assert "gate_section_gap_slope = PASS" in summary


# summary keys and CSV columns that hold rounding noise, and the bound on it
NOISE_KEYS = {"rel_error", "residual", "abs_residual", "max_interior_residual"}
NOISE_BOUND = 1e-13
# relative tolerances: rate values may move by a power iteration step on
# another BLAS; the solver modes' conditions and norms only by rounding
RATE_MODES = {"section_gap", "commutator", "kernel_gap"}
RATE_RTOL = 1e-7
SOLVER_RTOL = 1e-10
# the outputs' parser, shared with the comparison script
output_cells = load_script("compare_outputs").output_cells


def check_output_cell(mode, name, got, want):
    if isinstance(want, str) or isinstance(want, int) and isinstance(got, int):
        assert got == want, name
    elif name in NOISE_KEYS:
        assert 0.0 <= got <= NOISE_BOUND and want <= NOISE_BOUND, name
    else:
        rtol = RATE_RTOL if mode in RATE_MODES else SOLVER_RTOL
        assert math.isclose(got, want, rel_tol=rtol, abs_tol=0.0), name


class TestShippedOutputs:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_rerun_matches_the_reference_outputs(self, tmp_path, monkeypatch, mode):
        # every shipped config rerun, compared as numbers with its committed
        # outputs: text, integers and ranks exactly, values to tolerance
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        cfg = load_config(ROOT / "configs" / f"{mode}.ini")
        _, csv_path, summary_path = run_experiment(cfg)
        for path in (csv_path, summary_path):
            got = list(output_cells(path))
            want = list(output_cells(REFERENCE_OUT / mode / path.name))
            assert [name for name, _ in got] == [name for name, _ in want], path.name
            for (name, got_cells), (_, want_cells) in zip(got, want):
                assert len(got_cells) == len(want_cells), name
                for g, w in zip(got_cells, want_cells):
                    check_output_cell(mode, name, g, w)

    def test_solve_run_allocates_less_than_two_kernel_stacks(self, tmp_path):
        # a solve-mode run at (n, N) = (2, 384): the cores take 9 MiB, as
        # one stack of the n^2 kernel blocks would; the planted spectrum is
        # released once its boundary data are synthesized, which took the
        # peak from 17 to 15 MiB, and the condition estimate orthonormalizes
        # its Krylov blocks one by one, with no 2nN x 40 QR, which took it
        # to 14.3 MiB
        text = SOLVE_CONFIG.format(out=tmp_path / "out").replace("N = 64", "N = 384").replace(
            "boundary = zeta", "boundary = row_trace").replace(
            "s = -1.25\nn = 1", "s = -2.25\nn = 2")
        cfg = load_config(write_config(tmp_path, text))
        assert (cfg.n, cfg.N, cfg.boundary) == (2, 384, "row_trace")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report, _, _ = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert peak - start < 15 * 2 ** 20


class TestOtherCommands:
    def test_validate_accepts_shipped_configs(self, repo_configs):
        for cfg in repo_configs:
            assert main(["validate", str(cfg)]) == 0

    @pytest.mark.parametrize("mode", list(MODES))
    def test_validate_prints_the_seed_of_seeded_modes(self, tmp_path, capsys, mode):
        text = SMALL_CONFIGS[mode].format(mode=mode, out=tmp_path / "out")
        assert main(["validate", str(write_config(tmp_path, text))]) == 0
        seeded = mode in cli.LATTICE
        assert ("seed=" in capsys.readouterr().out) == seeded

    @pytest.mark.parametrize("mode, seed, message", [
        (mode, "5", "line 3: unknown key 'seed' in [experiment]")
        for mode in ("kernel_gap", "commutator", "section_gap")
    ] + [("solve", "-1", "line 3: bad value for 'seed': must be a non-negative integer")])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_seed_exits_2_line_referenced(self, tmp_path, capsys, mode, seed, message,
                                              command):
        text = SMALL_CONFIGS[mode].format(mode=mode, out=tmp_path / "out")
        text = re.sub(r"(?m)^seed = .*\n", "", text)  # the config's own seed, if any
        text = text.replace(f"mode = {mode}\n", f"mode = {mode}\nseed = {seed}\n")
        assert main([command, str(write_config(tmp_path, text))]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        bad = write_config(tmp_path, "[experiment]\nmode = wat\n")
        assert main(["validate", str(bad)]) == 2
        assert "unknown mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_directory_as_config_exits_2(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_binary_config_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.ini"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_schema_prints_columns_and_gates(self, capsys):
        assert main(["schema", "solve"]) == 0
        out = capsys.readouterr().out
        assert "# schema=solve-v1" in out
        assert "abs_residual" in out
        assert "gates:" in out

    @staticmethod
    def schema_gates(mode, capsys):
        """The gate lines ``quadbvp schema`` prints for a mode, by gate name."""
        assert main(["schema", mode]) == 0
        lines = capsys.readouterr().out.split("gates:\n")[1].splitlines()
        return dict(line.strip().split(": ", 1) for line in lines)

    @pytest.mark.parametrize("mode, gate, values", [
        ("solve", "solve_residual",
         (f"{cli.RESIDUAL_TOL:.0e}", f"{cli.RESIDUAL_COND_LIMIT:.0e}")),
        ("solve", "roundtrip_rel_error", (f"{cli.ROUNDTRIP_TOL:.0e}",)),
        ("kernel_gap", "kernel_gap_growth", (f"{cli.KERNEL_GAP_GROWTH_TOL:.0%}",)),
        ("commutator", "commutator_slope", (f"{cli.COMMUTATOR_SLOPE_FACTOR:g}",)),
        ("section_gap", "section_gap_slope", (f"{cli.SECTION_GAP_SLOPE_MIN:g}",))])
    def test_schema_gates_state_the_thresholds_the_runs_gate_on(self, capsys, mode, gate,
                                                                values):
        line = self.schema_gates(mode, capsys)[gate]
        for value in values:
            assert re.search(rf"(?<![\w.+-]){re.escape(value)}(?![\w.])", line), (value, line)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_schema_gates_are_the_summary_gates(self, capsys, mode):
        summary = (REFERENCE_OUT / mode / f"{mode}_summary.txt").read_text()
        assert (list(self.schema_gates(mode, capsys))
                == re.findall(r"^gate_(\w+) = ", summary, re.MULTILINE))

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
