from pathlib import Path

import numpy as np
import pytest

from quenchtherm import cli, twospin
from quenchtherm.cli import EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, main
from quenchtherm.quench import ThermoLedger, run_sweep
from quenchtherm.twospin import TwoSpinParams

DATA = Path(__file__).parent / "data"

SWEEP_SYSTEM = """\
[run]
mode = sweep
model = two_spin
quench = system
beta = 1.0

[parameters]
epsilon_a = 0.0
alpha = 0.8
gamma = 1.2
chi = 1.8

[sweep]
variable = epsilon_b
start = -5.0
stop = 5.0
count = 41

[output]
path = {out}
"""

SWEEP_INTERACTION = """\
[run]
mode = sweep
model = two_spin
quench = interaction
beta = 1.0

[parameters]
epsilon = 1.0
alpha = 5.0
chi_b = 1.2

[sweep]
variable = gamma_b
start = -3.0
stop = 3.0
count = 31

[output]
path = {out}
"""

# the `run` golden configs; CI feeds the same files to the console script
RUN_TWO_SPIN, RUN_INTERACTION, RUN_CUSTOM = (
    (DATA / f"run_{tag}.ini").read_text() for tag in ("two_spin", "interaction", "custom"))

# a system sweep at beta * spread ~ 1e3; CI runs it through the console script
SWEEP_BETA800 = (DATA / "sweep_beta800.ini").read_text()

AUDIT_CFG = """\
[run]
mode = audit
seed = 11
count = 30
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSweep:
    def test_system_sweep_runs_clean(self, tmp_path, capsys):
        out = tmp_path / "panel_a.csv"
        cfg = write(tmp_path, "a.ini", SWEEP_SYSTEM.format(out=out))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        summary = capsys.readouterr().out
        assert "ORACLE MISMATCH" not in summary
        assert "diss_estar_violation" in summary
        assert (tmp_path / "panel_a.csv.summary.txt").read_text() == summary
        lines = out.read_text().splitlines()
        assert len(lines) == 42
        header = lines[0].split(",")
        assert header[0] == "value"
        assert "eng_w_diff" in header and "ora_w_diff" in header
        assert header[-6:] == [
            "flag_w_diff", "flag_w_hstar", "flag_w_estar",
            "flag_q_diff", "flag_q_hstar", "flag_q_estar",
        ]

    def test_interaction_sweep_runs_clean(self, tmp_path, capsys):
        out = tmp_path / "panel_b.csv"
        cfg = write(tmp_path, "b.ini", SWEEP_INTERACTION.format(out=out))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert "diss_estar_violation" in capsys.readouterr().out

    def test_flag_columns_track_dissipation_sign(self, tmp_path, capsys):
        out = tmp_path / "panel_a.csv"
        cfg = write(tmp_path, "a.ini", SWEEP_SYSTEM.format(out=out))
        main(["sweep", "--config", cfg])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        i_diss = header.index("eng_diss_estar")
        i_flag = header.index("flag_w_estar")
        saw_violation = False
        for line in lines[1:]:
            cells = line.split(",")
            violated = float(cells[i_diss]) < -1e-6
            assert cells[i_flag] == ("0" if violated else "1")
            saw_violation = saw_violation or violated
        assert saw_violation

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        cfg1 = write(tmp_path, "c1.ini", SWEEP_SYSTEM.format(out=out1))
        cfg2 = write(tmp_path, "c2.ini", SWEEP_SYSTEM.format(out=out2))
        main(["sweep", "--config", cfg1])
        main(["sweep", "--config", cfg2])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "s1.csv.summary.txt").read_bytes() == (
            tmp_path / "s2.csv.summary.txt"
        ).read_bytes()

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        cfg = write(tmp_path, "t.ini", SWEEP_SYSTEM.format(out=out))
        code = main([
            "sweep", "--config", cfg,
            "--tol", "oracle_match_rel=1e-16",
            "--tol", "oracle_match_abs=1e-16",
        ])
        assert code == EXIT_TOLERANCE
        assert "ORACLE MISMATCH" in capsys.readouterr().out

    @staticmethod
    def oracle_cells(out) -> np.ndarray:
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        ora = [j for j, name in enumerate(header) if name.startswith("ora_")]
        return np.array([[float(line.split(",")[j]) for j in ora] for line in lines[1:]])

    def test_non_finite_oracle_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(cli, "system_quench_ledger", lambda p_a, eps_b: ThermoLedger.assemble(
            (nan,) * 3, (nan,) * 3, nan, (nan,) * 3, p_a.beta, equilibrated=True))
        out = tmp_path / "nan.csv"
        cfg = write(tmp_path, "n.ini", SWEEP_BETA800.format(out=out))
        assert main(["sweep", "--config", cfg]) == EXIT_TOLERANCE
        summary = capsys.readouterr().out
        assert "max_abs_diff w_diff = nan" in summary
        assert "ORACLE MISMATCH w_diff: non-finite engine or oracle value" in summary
        assert not np.isfinite(self.oracle_cells(out)).any()

    def test_beta800_oracle_is_finite_within_the_gate(self, tmp_path, capsys):
        # beta * spread ~ 1e3, where the oracle's hyperbolic products overflowed
        out = tmp_path / "b.csv"
        cfg = write(tmp_path, "b.ini", SWEEP_BETA800.format(out=out))
        # exit 0: every field passed the oracle gate
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert "MISMATCH" not in capsys.readouterr().out
        cells = self.oracle_cells(out)
        assert cells.shape == (41, len(ThermoLedger.FIELDS)) and np.isfinite(cells).all()

    def test_degenerate_range_rejected(self, tmp_path, capsys):
        bad = SWEEP_SYSTEM.replace("stop = 5.0", "stop = -5.0")
        cfg = write(tmp_path, "d.ini", bad.format(out=tmp_path / "x.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_single_point_rejected(self, tmp_path, capsys):
        bad = SWEEP_SYSTEM.replace("count = 41", "count = 1")
        cfg = write(tmp_path, "d.ini", bad.format(out=tmp_path / "x.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()


class TestSweepColumns:
    """The CLI formats the engine cells straight from the ledger columns."""

    @pytest.mark.parametrize("template, kind", [
        (SWEEP_SYSTEM, "system"), (SWEEP_INTERACTION, "interaction")])
    def test_cells_equal_run_sweep_records(self, tmp_path, capsys, template, kind):
        out = tmp_path / "s.csv"
        cfg = cli.load_config(write(tmp_path, "s.ini", template.format(out=out)))
        assert main(["sweep", "--config", str(tmp_path / "s.ini")]) == EXIT_OK
        capsys.readouterr()
        grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
        h_a, h_b, h_r, _ = cli._two_spin_config(cfg, grid)
        ledgers = run_sweep(h_a, h_b, h_r, cfg.beta, kind)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == len(ledgers) + 1
        for line, ledger in zip(lines[1:], ledgers):
            row = dict(zip(header, line.split(",")))
            for name, value in ledger.numeric_fields().items():
                assert float(row[f"eng_{name}"]) == value, name
            flags = ledger.second_law_w + ledger.second_law_q
            assert [row[f"flag_{k}_{d}"] for k in "wq" for d in ("diff", "hstar", "estar")] \
                == ["1" if f else "0" for f in flags]


class TestSweepOracleStatics:
    """A sweep evaluates the pre-quench statics once, not per point."""

    @pytest.mark.parametrize("template, points, first", [
        (SWEEP_SYSTEM, 41, TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)),
        (SWEEP_INTERACTION, 31, TwoSpinParams(1.0, 5.0, 0.0, 0.0, 1.0))],
        ids=["system", "interaction"])
    def test_statics_evaluated_once_per_point_plus_one(
            self, tmp_path, capsys, monkeypatch, template, points, first):
        calls = []
        original = twospin.closed_form_statics
        monkeypatch.setattr(twospin, "closed_form_statics",
                            lambda p: calls.append(p) or original(p))
        twospin._uncoupled.cache_clear()  # an earlier sweep may hold this H_A
        cfg = write(tmp_path, "a.ini", template.format(out=tmp_path / "a.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert len(calls) == points + 1
        assert calls[0] == first

    def test_oracle_ledgers_equal_fresh_evaluations(self, tmp_path, capsys, monkeypatch):
        seen = []
        original = cli.system_quench_ledger

        def recorded(p_a, epsilon_b):
            seen.append((epsilon_b, original(p_a, epsilon_b)))
            return seen[-1][1]

        monkeypatch.setattr(cli, "system_quench_ledger", recorded)
        cfg = write(tmp_path, "a.ini", SWEEP_SYSTEM.format(out=tmp_path / "a.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert [v for v, _ in seen] == np.linspace(-5.0, 5.0, 41).tolist()
        for v, ledger in seen:
            assert ledger == twospin.system_quench_ledger(
                TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0), v)


class TestRepeatedMainCalls:
    """`main` shares one parser across calls; no call's options reach the next."""

    def test_tolerance_override_does_not_persist(self, tmp_path, capsys):
        cfg = write(tmp_path, "a.ini", SWEEP_SYSTEM.format(out=tmp_path / "unused.csv"))
        outs = [tmp_path / f"s{i}.csv" for i in range(3)]
        assert main(["sweep", "--config", cfg, "--out", str(outs[0])]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(outs[1]),
                     "--tol", "oracle_match_rel=1e-16",
                     "--tol", "oracle_match_abs=1e-16"]) == EXIT_TOLERANCE
        assert main(["sweep", "--config", cfg, "--out", str(outs[2])]) == EXIT_OK
        capsys.readouterr()
        for suffix in ("", ".summary.txt"):
            first = Path(str(outs[0]) + suffix).read_bytes()
            assert Path(str(outs[2]) + suffix).read_bytes() == first

    def test_seed_does_not_persist(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[run]\nmode = compare\ncount = 25\n")
        assert main(["compare", "--config", cfg, "--seed", "3"]) == EXIT_OK
        seeded = capsys.readouterr().out
        assert seeded.encode() == (DATA / "compare_seed3_count25.txt").read_bytes()
        assert main(["compare", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.startswith("compare seed=1 points=25")


class TestGoldenSweep:
    """Sweep outputs against files generated before the engine was batched.

    Value, oracle and flag cells and the summary's text lines are
    byte-identical; engine numbers may move in their last digits only.
    """

    @staticmethod
    def close(a: str, b: str) -> bool:
        x, y = float(a), float(b)
        return abs(x - y) <= 1e-13 * max(1.0, abs(x))

    @pytest.mark.parametrize("tag", ["sweep_system", "sweep_interaction"])
    def test_matches_committed_output(self, tmp_path, capsys, tag):
        out = tmp_path / f"{tag}.csv"
        template = (DATA / f"{tag}.ini").read_text()
        cfg = write(tmp_path, f"{tag}.ini", template.format(out=out))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        golden = (DATA / f"{tag}.csv").read_text().splitlines()
        lines = out.read_text().splitlines()
        assert len(lines) == len(golden) and lines[0] == golden[0]
        header = golden[0].split(",")
        for line, ref in zip(lines[1:], golden[1:]):
            for name, cell, ref_cell in zip(header, line.split(","), ref.split(",")):
                if name.startswith("eng_"):
                    assert self.close(cell, ref_cell), (name, cell, ref_cell)
                else:
                    assert cell == ref_cell, (name, cell, ref_cell)
        summary = (tmp_path / f"{tag}.csv.summary.txt").read_text().splitlines()
        ref_summary = (DATA / f"{tag}.csv.summary.txt").read_text().splitlines()
        assert len(summary) == len(ref_summary)
        for line, ref in zip(summary, ref_summary):
            key, _, value = line.partition(" = ")
            ref_key, _, ref_value = ref.partition(" = ")
            if key.startswith(("max_abs_diff ", "min ")):
                assert key == ref_key and self.close(value, ref_value), (line, ref)
            else:
                assert line == ref


class TestGoldenOutputs:
    """run, audit and compare output against files generated before the
    ledger record, the two-spin sampler and the quench pairing each got a
    single owner; every byte must match."""

    COMPARE_25 = "[run]\nmode = compare\ncount = 25\n"
    COMPARE_100 = "[run]\nmode = compare\ncount = 100\n"

    @pytest.mark.parametrize("tag, args, config", [
        ("compare_seed3_count25", ["compare", "--seed", "3"], COMPARE_25),
        ("compare_seed3_count100", ["compare", "--seed", "3"], COMPARE_100),
        ("audit_seed7", ["audit", "--seed", "7"], None),
        ("run_two_spin", ["run"], RUN_TWO_SPIN),
        ("run_interaction", ["run"], RUN_INTERACTION),
        ("run_custom", ["run"], RUN_CUSTOM),
    ])
    def test_matches_committed_output(self, tmp_path, capsys, tag, args, config):
        if config is not None:
            args = args + ["--config", write(tmp_path, f"{tag}.ini", config)]
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.encode() == (DATA / f"{tag}.txt").read_bytes()


class TestRun:
    def test_two_spin_ledger_text(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.ini", RUN_TWO_SPIN)
        assert main(["run", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        values = {}
        flags = {}
        for line in out.splitlines():
            key, _, rest = line.partition(" = ")
            if key.startswith("second_law"):
                flags[key] = rest.split()
            else:
                values[key] = float(rest)
        assert values["w_diff"] >= values["delta_f_s"] - 1e-10
        assert flags["second_law_w"][0] == "1"
        assert len(flags["second_law_q"]) == 3
        # first law, per definition
        for tag in ("diff", "hstar", "estar"):
            du = values[f"w_{tag}"] + values[f"q_{tag}"]
            assert values[f"diss_{tag}"] == pytest.approx(
                values[f"w_{tag}"] - values["delta_f_s"], abs=1e-12
            )
            assert np.isfinite(du)

    def test_two_spin_large_beta_needs_no_oracle(self, tmp_path, capsys):
        # the closed-form oracle overflows at this beta; `run` prints the
        # engine's ledger and never evaluates the oracle
        cfg = write(tmp_path, "r.ini", RUN_TWO_SPIN.replace("beta = 1.0", "beta = 400"))
        assert main(["run", "--config", cfg]) == EXIT_OK
        values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        flags = [values.pop(key).split() for key in ("second_law_w", "second_law_q")]
        assert list(values) == list(ThermoLedger.FIELDS)
        assert all(np.isfinite(float(v)) for v in values.values())
        assert all(len(f) == 3 and set(f) <= {"0", "1"} for f in flags)

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.ini", RUN_TWO_SPIN)
        dest = tmp_path / "ledger.txt"
        main(["run", "--config", cfg, "--out", str(dest)])
        assert dest.read_text() == capsys.readouterr().out

    def test_unwritable_output_path(self, tmp_path, capsys):
        # the ledger still prints; the failed write is reported, not raised
        cfg = write(tmp_path, "r.ini", RUN_TWO_SPIN)
        dest = tmp_path / "missing" / "ledger.txt"
        assert main(["run", "--config", cfg, "--out", str(dest)]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert "w_diff = " in captured.out
        assert captured.err.startswith("write failure: ")

    def test_custom_matrix_model(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", RUN_CUSTOM)
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert "w_diff = " in capsys.readouterr().out

    def test_missing_parameter_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "m.ini",
            RUN_TWO_SPIN.replace("epsilon_b = 1.5\n", ""),
        )
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()


class TestAudit:
    def test_passes_and_is_deterministic(self, tmp_path, capsys):
        cfg = write(tmp_path, "a.ini", AUDIT_CFG)
        assert main(["audit", "--config", cfg]) == EXIT_OK
        first = capsys.readouterr().out
        assert first.strip().endswith("RESULT PASS")
        main(["audit", "--config", cfg])
        assert capsys.readouterr().out == first

    def test_runs_without_config(self, capsys):
        assert main(["audit", "--seed", "5"]) == EXIT_OK
        capsys.readouterr()

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write(tmp_path, "a.ini", AUDIT_CFG)
        dest = tmp_path / "missing" / "audit.txt"
        assert main(["audit", "--config", cfg, "--out", str(dest)]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out.strip().endswith("RESULT PASS")
        assert captured.err.startswith("write failure: ")

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        cfg = write(tmp_path, "a.ini", AUDIT_CFG)
        code = main([
            "audit", "--config", cfg, "--tol", "eig_reconstruction=1e-30",
        ])
        assert code == EXIT_TOLERANCE
        assert "RESULT FAIL" in capsys.readouterr().out


class TestCompare:
    def test_seeded_compare_passes(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[run]\nmode = compare\ncount = 25\n")
        assert main(["compare", "--config", cfg, "--seed", "3"]) == EXIT_OK
        assert "RESULT PASS" in capsys.readouterr().out

    ZERO_TOL = ["--tol", "oracle_match_rel=0", "--tol", "oracle_match_abs=0"]

    def test_zero_limit_fails_on_any_difference(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[run]\nmode = compare\ncount = 1\n")
        assert main(["compare", "--config", cfg, "--seed", "3", *self.ZERO_TOL]) == EXIT_TOLERANCE
        out = capsys.readouterr().out
        assert "worst tolerance fraction = inf at " in out
        assert out.endswith("RESULT FAIL\n")

    def test_zero_limit_passes_an_exact_match(self, tmp_path, capsys, monkeypatch):
        ledger = twospin.system_quench_ledger(TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0), 0.5)
        monkeypatch.setattr(cli, "run_sweep", lambda *args: [ledger])
        monkeypatch.setattr(cli, "system_quench_ledger", lambda *args: ledger)
        monkeypatch.setattr(cli, "interaction_quench_ledger", lambda *args: ledger)
        cfg = write(tmp_path, "c.ini", "[run]\nmode = compare\ncount = 2\n")
        assert main(["compare", "--config", cfg, *self.ZERO_TOL]) == EXIT_OK
        out = capsys.readouterr().out
        assert "worst tolerance fraction = 0 at \n" in out


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_malformed_tol_flag(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.ini", RUN_TWO_SPIN)
        assert main(["run", "--config", cfg, "--tol", "oops"]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("command, name", [
        ("sweep", "oracle_match_rell"),
        ("sweep", "eig_reconstruction"),
        ("audit", "oracle_match_rel"),
        ("run", "oracle_match_rel"),
    ])
    def test_unknown_tolerance_name(self, tmp_path, capsys, command, name):
        template = {"sweep": SWEEP_SYSTEM, "audit": AUDIT_CFG, "run": RUN_TWO_SPIN}[command]
        cfg = write(tmp_path, "t.ini", template.format(out=tmp_path / "x.csv"))
        assert main([command, "--config", cfg, "--tol", f"{name}=1"]) == EXIT_CONFIG
        assert repr(name) in capsys.readouterr().err

    def test_unknown_tolerance_key_in_config(self, tmp_path, capsys):
        text = SWEEP_SYSTEM + "\n[tolerances]\noracle_match_rell = 1\n"
        cfg = write(tmp_path, "t.ini", text.format(out=tmp_path / "x.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert "'oracle_match_rell'" in capsys.readouterr().err

    def test_known_tolerance_key_in_config(self, tmp_path, capsys):
        text = SWEEP_SYSTEM + "\n[tolerances]\noracle_match_rel = 1e-7\n"
        cfg = write(tmp_path, "t.ini", text.format(out=tmp_path / "x.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, name", [
        ("sweep", "oracle_match_rel"),
        ("compare", "oracle_match_rel"),
        ("audit", "factorization"),
    ])
    def test_tolerance_not_finite_and_nonnegative_is_a_config_error(
            self, tmp_path, capsys, command, name, source, value):
        # a NaN tolerance used to switch its gate off: compare printed PASS
        template = {"sweep": SWEEP_SYSTEM, "compare": "[run]\nmode = compare\ncount = 2\n",
                    "audit": AUDIT_CFG}[command]
        text, args = template.format(out=tmp_path / "x.csv"), []
        if source == "config":
            text += f"\n[tolerances]\n{name} = {value}\n"
        else:
            args = ["--tol", f"{name}={value}"]
        cfg = write(tmp_path, "t.ini", text)
        assert main([command, "--config", cfg, *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: tolerance {name!r} must be finite and "
                                f">= 0, got {float(value)}\n")

    def test_bad_beta(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.ini", RUN_TWO_SPIN.replace("beta = 1.0", "beta = -1"))
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
    def test_non_finite_beta_is_a_config_error(self, tmp_path, capsys, beta):
        cfg = write(tmp_path, "c.ini", RUN_CUSTOM.replace("beta = 0.9", f"beta = {beta}"))
        with pytest.raises(cli.ConfigError, match="beta must be positive and finite"):
            cli.load_config(cfg)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("text, fault", [
        (RUN_TWO_SPIN + "alpha = 0.9\n", "DuplicateOptionError"),
        ("beta = 1.0\n" + RUN_TWO_SPIN, "MissingSectionHeaderError"),
        (RUN_TWO_SPIN.replace("beta = 1.0", "beta = 1%"), "InterpolationSyntaxError"),
        (RUN_CUSTOM.replace("d_r = 2\n", ""), "NoOptionError"),
    ], ids=["duplicate_option", "no_section_header", "bare_percent", "missing_d_r"])
    def test_malformed_ini_is_a_config_error(self, tmp_path, capsys, text, fault):
        cfg = write(tmp_path, "bad.ini", text)
        with pytest.raises(cli.ConfigError) as info:
            cli.load_config(cfg)
        assert type(info.value.__cause__).__name__ == fault
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: bad config {cfg}: ")

    @pytest.mark.parametrize("command", ["compare", "audit"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count_is_a_config_error(self, tmp_path, capsys, command, count):
        cfg = write(tmp_path, "c.ini", f"[run]\nmode = {command}\ncount = {count}\n")
        with pytest.raises(cli.ConfigError, match=f"count must be >= 1, got {count}"):
            cli.load_config(cfg)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")

    def test_non_hermitian_custom_matrix_is_a_config_error(self, tmp_path, capsys):
        bad = RUN_CUSTOM.replace("h_sur_b = 0.8, 0,", "h_sur_b = 0.8, 0.5,")
        assert bad != RUN_CUSTOM
        cfg = write(tmp_path, "c.ini", bad)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: custom_matrix quench: "
                                "hermiticity defect 5.000e-01 exceeds tolerance\n")

    def test_bad_matrix_length(self, tmp_path, capsys):
        bad = RUN_CUSTOM.replace("h_r = 0.4, 0, 0, -0.4", "h_r = 0.4, 0, 0")
        cfg = write(tmp_path, "c.ini", bad)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()
