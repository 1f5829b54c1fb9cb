import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quenchtherm import audits, cli, twospin
from quenchtherm.cli import EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, main
from quenchtherm.quench import (
    INTERACTION_QUENCH,
    SYSTEM_QUENCH,
    ThermoLedger,
    _records,
    run_sweep,
)
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


def setting(text, key, value):
    """`text` with the value of its one `key = ...` line replaced by `value`."""
    new, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert n == 1, key
    return new


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
        def nan_ledger(p_a, eps_b):
            nan = np.full(len(eps_b), np.nan)
            return ThermoLedger(*(nan,) * 10, p_a.beta, equilibrated=True)

        monkeypatch.setattr(cli, "system_quench_ledger", nan_ledger)
        out = tmp_path / "nan.csv"
        cfg = write(tmp_path, "n.ini", SWEEP_BETA800.format(out=out))
        assert main(["sweep", "--config", cfg]) == EXIT_TOLERANCE
        summary = capsys.readouterr().out
        assert "max_abs_diff w_diff = nan" in summary
        assert "ORACLE MISMATCH w_diff: non-finite engine or oracle value" in summary
        assert not np.isfinite(self.oracle_cells(out)).any()

    def test_one_cell_outside_its_tolerance_fails(self, tmp_path, capsys, monkeypatch):
        # w_diff is exactly 0 at epsilon_b = epsilon_a = 0; 1e-9 there is ten
        # times its cell's tolerance, though far below the column's largest |w_diff|
        original = cli.system_quench_ledger

        def shifted(p_a, eps_b):
            ledger = original(p_a, eps_b)
            return replace(ledger, w_diff=np.where(eps_b == 0, ledger.w_diff + 1e-9, ledger.w_diff))

        monkeypatch.setattr(cli, "system_quench_ledger", shifted)
        cfg = write(tmp_path, "s.ini", SWEEP_SYSTEM.format(out=tmp_path / "s.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_TOLERANCE
        mismatches = [line for line in capsys.readouterr().out.splitlines()
                      if "MISMATCH" in line]
        # the shifted work moves its own dissipation
        assert len(mismatches) == 2
        assert mismatches[0].startswith("ORACLE MISMATCH w_diff: worst tolerance fraction ")
        assert mismatches[1].startswith("ORACLE MISMATCH diss_diff: worst tolerance fraction ")

    @pytest.mark.parametrize("variable", ["variable = alpha\n", ""])
    def test_label_names_the_swept_parameter(self, tmp_path, capsys, variable):
        # a system quench sweeps epsilon_b; a [sweep] variable naming another parameter
        # used to load unread and sweep epsilon_b all the same
        text = SWEEP_SYSTEM.replace("variable = epsilon_b\n", variable)
        cfg = write(tmp_path, "s.ini", text.format(out=tmp_path / "s.csv"))
        if variable:
            assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("config error: [sweep] variable = alpha, but system quenches "
                                    "sweep epsilon_b\n")
            assert not (tmp_path / "s.csv").exists()
        else:
            assert main(["sweep", "--config", cfg]) == EXIT_OK
            assert capsys.readouterr().out.startswith("sweep variable=epsilon_b points=41 ")

    def test_beta800_oracle_is_finite_within_the_gate(self, tmp_path, capsys):
        # beta * spread ~ 1e3, where the oracle's hyperbolic products overflowed
        out = tmp_path / "b.csv"
        cfg = write(tmp_path, "b.ini", SWEEP_BETA800.format(out=out))
        # exit 0: every field passed the oracle gate
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert "MISMATCH" not in capsys.readouterr().out
        cells = self.oracle_cells(out)
        assert cells.shape == (41, len(ThermoLedger.FIELDS)) and np.isfinite(cells).all()

    @pytest.mark.parametrize("start, stop", [
        ("5.0", "5.0"), ("inf", "1"), ("1", "-inf"), ("nan", "1"), ("1e308", "-1e308")])
    def test_degenerate_range_rejected(self, tmp_path, capsys, start, stop):
        # (1e308, -1e308) spans more than a float: linspace would overflow
        text = setting(setting(SWEEP_SYSTEM, "start", start), "stop", stop)
        cfg = write(tmp_path, "d.ini", text.format(out=tmp_path / "x.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: sweep start and stop must differ and span a finite range\n")
        assert not (tmp_path / "x.csv").exists()

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
        cfg = cli.load_config(write(tmp_path, "s.ini", template.format(out=out)), "sweep")
        assert main(["sweep", "--config", str(tmp_path / "s.ini")]) == EXIT_OK
        capsys.readouterr()
        grid = np.linspace(cfg.start, cfg.stop, cfg.count)
        h_a, h_b, h_r, *_ = cli._two_spin_config(cfg, grid)
        columns = run_sweep(h_a, h_b, h_r, cfg.beta, kind)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == len(grid) + 1
        flags = [*columns.second_law_w, *columns.second_law_q]
        for k, line in enumerate(lines[1:]):
            row = dict(zip(header, line.split(",")))
            for name in ThermoLedger.FIELDS:
                assert float(row[f"eng_{name}"]) == getattr(columns, name)[k], name
            assert [row[f"flag_{w}_{d}"] for w in "wq" for d in ("diff", "hstar", "estar")] \
                == ["1" if f[k] else "0" for f in flags]


class TestSweepOracleStatics:
    """A sweep calls the oracle once and evaluates the pre-quench statics once, not per point."""

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
        [(values, columns)] = seen
        assert values.tolist() == np.linspace(-5.0, 5.0, 41).tolist()
        for v, ledger in zip(values.tolist(), _records(columns)):
            assert ledger == twospin.system_quench_ledger(
                TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0), v)

    @pytest.mark.parametrize("template, name", [
        (SWEEP_SYSTEM, "system_quench_ledger"), (SWEEP_INTERACTION, "interaction_quench_ledger")],
        ids=["system", "interaction"])
    def test_one_oracle_call_per_sweep(self, tmp_path, capsys, monkeypatch, template, name):
        calls = []
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or original(*args))
        cfg = write(tmp_path, "a.ini", template.format(out=tmp_path / "a.csv"))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert len(calls) == 1


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
    """Sweep CSVs and summaries against the committed files; every byte must match."""

    @pytest.mark.parametrize("tag", ["sweep_system", "sweep_interaction", "sweep_beta800"])
    def test_matches_committed_output(self, tmp_path, capsys, tag):
        out = tmp_path / f"{tag}.csv"
        template = (DATA / f"{tag}.ini").read_text()
        cfg = write(tmp_path, f"{tag}.ini", template.format(out=out))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert out.read_bytes() == (DATA / f"{tag}.csv").read_bytes()
        summary = tmp_path / f"{tag}.csv.summary.txt"
        assert summary.read_bytes() == (DATA / f"{tag}.csv.summary.txt").read_bytes()


class TestOracleGateUnit:
    """The gate's absolute floor of an energy field is in the model's energy unit: the
    golden system sweep with its energies scaled by 2^k and beta by 2^-k passes, and a
    1e-6 relative error in one oracle cell fails at every k."""

    ENERGIES = {"system": ("alpha", "gamma", "chi", "start", "stop"),  # epsilon_a is 0
                "interaction": ("epsilon", "alpha", "chi_b", "start", "stop")}

    @classmethod
    def config(cls, tmp_path, k, kind="system"):
        text = (DATA / f"sweep_{kind}.ini").read_text()
        for key in cls.ENERGIES[kind]:
            value = float(re.search(rf"^{key} = (.*)$", text, flags=re.M).group(1))
            text = setting(text, key, repr(2.0 ** k * value))
        text = setting(text, "beta", repr(2.0 ** -k))
        return write(tmp_path, "s.ini", text.format(out=tmp_path / "s.csv"))

    @pytest.mark.parametrize("error", [0.0, 1e-6])
    @pytest.mark.parametrize("k", [-40, 0])
    def test_relative_error_fails_in_any_unit(self, tmp_path, capsys, monkeypatch, k, error):
        original = cli.system_quench_ledger

        def perturbed(*args):
            ledger = original(*args)
            w_diff = ledger.w_diff.copy()
            w_diff[7] *= 1 + error
            return replace(ledger, w_diff=w_diff)

        monkeypatch.setattr(cli, "system_quench_ledger", perturbed)
        code = main(["sweep", "--config", self.config(tmp_path, k)])
        out = capsys.readouterr().out
        assert code == (EXIT_TOLERANCE if error else EXIT_OK)
        # diss_diff = w_diff - delta_f_s carries the same error
        mismatched = ["w_diff", "diss_diff"] if error else []
        assert re.findall(r"ORACLE MISMATCH (\w+)", out) == mismatched

    def test_larger_unit_states_its_floor_in_that_unit(self, tmp_path, capsys):
        # the engine's checks accept the interaction golden sweep in a unit 2^20 larger,
        # with every flag kept; min(1, scale) never raises the gate's absolute floor, so
        # the zero work at gamma_B = 0 (1.1e-16 * 2^20 off) fails it unless the config
        # states that floor in its own unit
        cfg = self.config(tmp_path, 20, "interaction")
        assert main(["sweep", "--config", cfg]) == EXIT_TOLERANCE
        assert re.findall(r"ORACLE MISMATCH (\w+)", capsys.readouterr().out) == ["w_diff"]
        floor = f"oracle_match_abs={1e-10 * 2 ** 20!r}"
        assert main(["sweep", "--config", cfg, "--tol", floor]) == EXIT_OK
        assert "ORACLE MISMATCH" not in capsys.readouterr().out
        flags = [line.split(",")[-6:] for line in (tmp_path / "s.csv").read_text().splitlines()]
        golden = (DATA / "sweep_interaction.csv").read_text().splitlines()
        assert flags == [line.split(",")[-6:] for line in golden]


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

    def test_general_two_spin_quench_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "g.ini", RUN_TWO_SPIN.replace("quench = system", "quench = general"))
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: two_spin quenches are system or interaction quenches\n")

    def test_missing_parameter_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "m.ini",
            RUN_TWO_SPIN.replace("epsilon_b = 1.5\n", ""),
        )
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()


# the two-spin numbers of each kind's config
TWO_SPIN_NUMBERS = {"system": ("epsilon_a", "alpha", "gamma", "chi"),
                    "interaction": ("epsilon", "alpha", "chi_b")}


class TestTwoSpinNumbers:
    """Every two-spin number reaches `TwoSpinParams`, which checks it.  chi_b used to
    reach only the H_B matrices, where NaN raised a NotHermitian traceback."""

    TEMPLATES = {("run", "system"): RUN_TWO_SPIN, ("run", "interaction"): RUN_INTERACTION,
                 ("sweep", "system"): SWEEP_SYSTEM, ("sweep", "interaction"): SWEEP_INTERACTION}
    FIELD = {"epsilon_a": "epsilon", "chi_b": "chi"}  # the TwoSpinParams field it sets

    @pytest.mark.parametrize("command, kind, name, value", [
        (command, kind, name, value) for command in ("run", "sweep")
        for kind, names in TWO_SPIN_NUMBERS.items() for name in names
        for value in (("nan", "1e400") if name == "chi_b" else ("nan",))])
    def test_non_finite_number_is_a_config_error(
            self, tmp_path, capsys, command, kind, name, value):
        text = setting(self.TEMPLATES[command, kind], name, value)
        cfg = write(tmp_path, "n.ini", text.format(out=tmp_path / "x.csv"))
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {self.FIELD.get(name, name)} must be finite\n"


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

    def test_nan_residual_fails_its_suite(self, tmp_path, capsys, monkeypatch):
        real = audits.second_law_audit
        monkeypatch.setattr(audits, "second_law_audit",
                            lambda spec, ledger: replace(real(spec, ledger), residual_diff=np.nan))
        cfg = write(tmp_path, "a.ini", AUDIT_CFG)
        assert main(["audit", "--config", cfg]) == EXIT_TOLERANCE
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL  relative_entropy_diff    worst=nan tol=1.0e-08 cases=30" in lines
        assert lines[-1] == "RESULT FAIL"
        assert sum(line.startswith("FAIL") for line in lines) == 1

    @pytest.mark.parametrize("n_quenches", [0, -3])
    def test_case_count_below_one_rejected(self, n_quenches):
        with pytest.raises(ValueError, match="n_quenches must be at least 1"):
            audits.run_invariant_audit(7, n_quenches)

    def test_case_count_has_no_default(self):
        with pytest.raises(TypeError):
            audits.run_invariant_audit(7)

    def test_one_line_per_tolerance_in_order(self, tmp_path, capsys):
        lines, passed = audits.run_invariant_audit(7, 3)
        assert passed and lines[0] == "invariant audit, seed=7" and lines[-1] == "RESULT PASS"
        suites = [line.split() for line in lines[1:-1]]
        assert [fields[1] for fields in suites] == list(audits.DEFAULT_TOLERANCES)
        assert [fields[-1] for fields in suites] == [
            f"cases={n}" for n in (100, 50, 50, 3, 50, 50, 3, 3, 3, 3, 3, 50)]
        cfg = write(tmp_path, "a.ini", "[run]\nseed = 7\ncount = 3\n")
        assert main(["audit", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


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
        p = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        ledger = twospin.system_quench_ledger(p, np.array([0.5]))
        # one engine batch of count = 2 draws per kind, one oracle call per draw
        pair = twospin.system_quench_ledger(p, np.array([0.5, 0.5]))
        monkeypatch.setattr(cli, "_stack_ledgers", lambda *args: pair)
        monkeypatch.setattr(cli, "system_quench_ledger", lambda *args: ledger)
        monkeypatch.setattr(cli, "interaction_quench_ledger", lambda *args: ledger)
        cfg = write(tmp_path, "c.ini", "[run]\nmode = compare\ncount = 2\n")
        assert main(["compare", "--config", cfg, *self.ZERO_TOL]) == EXIT_OK
        out = capsys.readouterr().out
        assert "worst tolerance fraction = 0 at \n" in out

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[run]\ncount = 2\n")
        dest = tmp_path / "compare.txt"
        assert main(["compare", "--config", cfg, "--out", str(dest)]) == EXIT_OK
        assert dest.read_bytes() == capsys.readouterr().out.encode()

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[run]\ncount = 2\n")
        dest = tmp_path / "missing" / "compare.txt"
        assert main(["compare", "--config", cfg, "--out", str(dest)]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out.endswith("RESULT PASS\n")
        assert captured.err.startswith("write failure: ")

    @staticmethod
    def tables(tmp_path, monkeypatch, seed, count):
        """compare's (2 count, F) engine and oracle tables, as its gate reads them."""
        seen, gate = [], cli._oracle_fractions
        monkeypatch.setattr(cli, "_oracle_fractions",
                            lambda *args: seen.append(args[:2]) or gate(*args))
        cfg = write(tmp_path, "c.ini", f"[run]\ncount = {count}\n")
        assert main(["compare", "--config", cfg, "--seed", str(seed)]) == EXIT_OK
        [tables] = seen
        return tables

    @staticmethod
    def per_draw_tables(seed, count):
        """The same tables from one public `run_sweep` on a one-member stack per draw."""
        rng, eng, ora = np.random.default_rng(seed), [], []
        for kind in (SYSTEM_QUENCH, INTERACTION_QUENCH):
            for _ in range(count):
                p = audits.random_two_spin_params(rng)
                value = rng.uniform(-2, 2) if kind == SYSTEM_QUENCH else p.gamma
                h_a, h_b, h_r, oracle, _ = cli._two_spin_sweep(kind, p, np.array([value]))
                eng.append(cli._table(run_sweep(h_a, h_b, h_r, p.beta, kind)))
                ora.append(cli._table(oracle()))
        return np.vstack(eng), np.vstack(ora)

    @pytest.mark.parametrize("count", [1, 25])
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_batches_equal_per_draw_quenches(self, tmp_path, capsys, monkeypatch, seed, count):
        eng, ora = self.tables(tmp_path, monkeypatch, seed, count)
        ref_eng, ref_ora = self.per_draw_tables(seed, count)
        assert eng.shape == (2 * count, len(ThermoLedger.FIELDS))
        assert np.array_equal(eng, ref_eng) and np.array_equal(ora, ref_ora)
        capsys.readouterr()

    def test_one_global_eigh_per_kind(self, tmp_path, capsys, eig_calls):
        cfg = write(tmp_path, "c.ini", "[run]\ncount = 25\n")
        assert main(["compare", "--config", cfg, "--seed", "3"]) == EXIT_OK
        assert eig_calls["eigh"].count(4) == 2
        capsys.readouterr()

    def test_nan_cell_fails(self, tmp_path, capsys, monkeypatch):
        original = cli.system_quench_ledger
        monkeypatch.setattr(cli, "system_quench_ledger",
                            lambda *args: replace(original(*args), w_diff=np.array([np.nan])))
        cfg = write(tmp_path, "c.ini", "[run]\nmode = compare\ncount = 3\n")
        assert main(["compare", "--config", cfg]) == EXIT_TOLERANCE
        out = capsys.readouterr().out
        assert out.endswith("worst tolerance fraction = inf at system:w_diff\nRESULT FAIL\n")


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["run", "sweep", "audit", "compare"])
    def test_config_without_run_section(self, tmp_path, capsys, command):
        cfg = write(tmp_path, "x.ini", f"[output]\npath = {tmp_path / 'x'}\n")
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: bad config {cfg}: no [run] section\n"

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
            cli.load_config(cfg, "run")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("text, fault", [
        (RUN_TWO_SPIN + "alpha = 0.9\n", "DuplicateOptionError"),
        ("beta = 1.0\n" + RUN_TWO_SPIN, "MissingSectionHeaderError"),
        # a % is literal, so "1%" reaches float() as it stands
        (RUN_TWO_SPIN.replace("beta = 1.0", "beta = 1%"), "ValueError"),
        (RUN_CUSTOM.replace("d_r = 2\n", ""), "NoOptionError"),
    ], ids=["duplicate_option", "no_section_header", "bare_percent", "missing_d_r"])
    def test_malformed_ini_is_a_config_error(self, tmp_path, capsys, text, fault):
        cfg = write(tmp_path, "bad.ini", text)
        with pytest.raises(cli.ConfigError) as info:
            cli.load_config(cfg, "run")
        assert type(info.value.__cause__).__name__ == fault
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: bad config {cfg}: ")

    def test_percent_in_a_value_is_literal(self, tmp_path, capsys):
        out = tmp_path / "a%b.csv"
        cfg = write(tmp_path, "p.ini", SWEEP_SYSTEM.format(out=out))
        assert cli.load_config(cfg, "sweep").path == str(out)
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out == (tmp_path / "a%b.csv.summary.txt").read_text()
        assert out.read_text().startswith("value,")

    @pytest.mark.parametrize("command", ["compare", "audit"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count_is_a_config_error(self, tmp_path, capsys, command, count):
        cfg = write(tmp_path, "c.ini", f"[run]\nmode = {command}\ncount = {count}\n")
        with pytest.raises(cli.ConfigError, match=f"count must be >= 1, got {count}"):
            cli.load_config(cfg, command)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")

    @pytest.mark.parametrize("start", ["h_sur_b = 0.8, ", "h_r = 0.4, "], ids=["h_sur_b", "h_r"])
    def test_non_hermitian_custom_matrix_is_a_config_error(self, tmp_path, capsys, start):
        bad = RUN_CUSTOM.replace(start + "0,", start + "0.5,")
        assert bad != RUN_CUSTOM
        cfg = write(tmp_path, "c.ini", bad)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: custom_matrix quench: "
                                "hermiticity defect 5.000e-01 exceeds tolerance\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_matrix_entry_is_a_config_error(self, tmp_path, capsys, value):
        bad = RUN_CUSTOM.replace("h_r = 0.4,", f"h_r = {value},")
        assert bad != RUN_CUSTOM
        cfg = write(tmp_path, "c.ini", bad)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: matrix 'h_r' has a non-finite entry\n"

    def test_bad_matrix_length(self, tmp_path, capsys):
        bad = RUN_CUSTOM.replace("h_r = 0.4, 0, 0, -0.4", "h_r = 0.4, 0, 0")
        cfg = write(tmp_path, "c.ini", bad)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: matrix 'h_r' needs 4 row-major entries, got 3\n")

    @pytest.mark.parametrize("command, text, message", [
        # betta used to fall back to beta = 1 and print the beta = 1 golden
        ("run", RUN_TWO_SPIN.replace("beta = 1.0", "betta = 2.0"), "unknown key 'betta' in [run]"),
        # [tolerance] used to be skipped: the audit passed at its default tolerances
        ("audit", AUDIT_CFG + "\n[tolerance]\nfactorization = 0\n",
         "unknown config section [tolerance]"),
        ("run", RUN_CUSTOM + "h_x = 1, 0, 0, 1\n", "unknown key 'h_x' in [matrices]"),
    ], ids=["run_key", "section", "matrix_key"])
    def test_unknown_config_name_is_a_config_error(
            self, tmp_path, capsys, command, text, message):
        assert main([command, "--config", write(tmp_path, "u.ini", text)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestDefaults:
    """`cli._READS` is the one owner of each config name's section and default."""

    # each name a subcommand reads, at its default
    DEFAULTS = {
        "run": {"mode": "run", "model": "two_spin", "quench": "system", "beta": 1.0, "path": ""},
        "sweep": {"mode": "sweep", "model": "two_spin", "quench": "system", "beta": 1.0,
                  "variable": "", "start": 0.0, "stop": 0.0, "count": 0, "path": ""},
        "audit": {"mode": "audit", "seed": 1, "count": 100, "path": ""},
        "compare": {"mode": "compare", "seed": 1, "count": 100, "path": ""},
    }
    # the model inputs that run and sweep require of a system quench
    PARAMETERS = {"run": {"epsilon_a": 0.0, "alpha": 0.8, "gamma": 1.2, "chi": 1.8,
                          "epsilon_b": 1.5},
                  "sweep": {"epsilon_a": 0.0, "alpha": 0.8, "gamma": 1.2, "chi": 1.8}}

    @pytest.mark.parametrize("command", ["run", "sweep", "audit", "compare"])
    def test_config_of_only_run_loads_each_listed_name_at_its_default(self, tmp_path, command):
        # so audit's config has no beta, and sweep's has no seed
        table = {name: default for section, names in cli._READS[command].items()
                 if section not in ("tolerances", "inputs") for name, default in names.items()}
        assert table == self.DEFAULTS[command]
        parameters = self.PARAMETERS.get(command)
        text = "[run]\n" + (ini({"parameters": parameters}) if parameters else "")
        cfg = vars(cli.load_config(write(tmp_path, "d.ini", text), command))
        expected = {**table, "tolerances": {}}
        if parameters:
            expected["parameters"] = parameters
        assert cfg == expected
        assert [type(cfg[name]) for name in table] == [type(v) for v in table.values()]
        if command == "audit":  # which also runs without a config
            assert vars(cli.load_config(None, command)) == expected

    def test_custom_matrix_run_needs_its_space(self, tmp_path, capsys):
        # it used to run as 2 x 2
        text = RUN_CUSTOM.replace("[space]\nd_s = 2\nd_r = 2\n\n", "")
        assert "[space]" not in text
        cfg = write(tmp_path, "c.ini", text)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: bad config {cfg}: No option 'd_s' in section: 'space'\n")

    @pytest.mark.parametrize("command, text, mode", [
        ("run", RUN_TWO_SPIN, "audit"), ("sweep", SWEEP_SYSTEM, "run"),
        ("audit", AUDIT_CFG, "compare"), ("compare", "[run]\nmode = compare\n", "sweep")],
        ids=["run", "sweep", "audit", "compare"])
    def test_mode_other_than_the_subcommand_is_a_config_error(
            self, tmp_path, capsys, command, text, mode):
        # it used to load unread: mode = audit in a run config ran the quench
        text = setting(text, "mode", mode).format(out=tmp_path / "x.csv")
        assert main([command, "--config", write(tmp_path, "m.ini", text)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: [run] mode = {mode}, but the subcommand is "
                                f"{command}\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["audit", "compare"])
    def test_negative_seed_names_itself(self, tmp_path, capsys, command, source):
        # it used to print numpy's "expected non-negative integer"
        text = f"[run]\nmode = {command}\ncount = 2\n"
        args = ["--seed", "-1"] if source == "flag" else []
        if source == "config":
            text += "seed = -1\n"
        assert main([command, "--config", write(tmp_path, "s.ini", text), *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: seed must be >= 0, got -1\n"


def ini(sections: dict[str, dict[str, object]]) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())


class TestSubcommandReads:
    """Each subcommand accepts exactly the config names, tolerances and options that it
    reads, as `cli._READS` lists them; each case below used to exit 0, its name unread."""

    SWEEP_SYSTEM_INI = (DATA / "sweep_system.ini").read_text()
    COMPARE = "[run]\nmode = compare\ncount = 2\n"
    V = "v = " + ", ".join(["0.1"] * 16) + "\n"

    @pytest.mark.parametrize("command, text, args, message", [
        # a sweep takes [sweep] count
        ("sweep", SWEEP_SYSTEM_INI.replace("beta = 1.0\n", "beta = 1.0\ncount = 5\n"), [],
         "unknown key 'count' in [run]"),
        # an interaction quench starts uncoupled: H_A has no gamma or chi
        ("run", RUN_INTERACTION + "gamma = 0.3\n", [], "unknown key 'gamma' in [parameters]"),
        ("run", RUN_INTERACTION + "chi = 0.4\n", [], "unknown key 'chi' in [parameters]"),
        # a sweep's H_B values are its grid
        ("sweep", SWEEP_SYSTEM_INI.replace("chi = 1.8\n", "chi = 1.8\nepsilon_b = 99\n"), [],
         "unknown key 'epsilon_b' in [parameters]"),
        # a general quench takes whole H_A and H_B
        ("run", RUN_CUSTOM + V, [], "unknown key 'v' in [matrices]"),
        ("compare", COMPARE + "beta = 7\n", [], "unknown key 'beta' in [run]"),
        ("compare", COMPARE + "model = custom_matrix\n", [], "unknown key 'model' in [run]"),
        ("run", RUN_TWO_SPIN + "\n[space]\nd_s = 2\nd_r = 2\n", [],
         "unknown config section [space]"),
        ("run", RUN_TWO_SPIN, ["--seed", "3"], "run does not read --seed"),
        ("sweep", SWEEP_SYSTEM_INI, ["--seed", "3"], "sweep does not read --seed"),
    ], ids=["sweep_run_count", "run_interaction_gamma", "run_interaction_chi",
            "sweep_epsilon_b", "run_general_v", "compare_beta", "compare_model", "run_space",
            "run_seed", "sweep_seed"])
    def test_unread_name_is_a_config_error(self, tmp_path, capsys, command, text, args,
                                           message):
        out = tmp_path / "x.csv"
        cfg = write(tmp_path, "u.ini", text.replace("{out}", str(out)))
        assert main([command, "--config", cfg, *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("template, name, value", [
        (RUN_INTERACTION, "gamma_b", "nan"), (RUN_TWO_SPIN, "epsilon_b", "nan"),
        (RUN_TWO_SPIN, "epsilon_b", "-inf")],
        ids=["gamma_b_nan", "epsilon_b_nan", "epsilon_b_-inf"])
    def test_non_finite_h_b_value_names_its_parameter(self, tmp_path, capsys, template, name,
                                                      value):
        # a run has no sweep: this used to print "sweep values must be finite"
        cfg = write(tmp_path, "r.ini", setting(template, name, value))
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {name} must be finite\n"

    # a valid value for every name the table lists; a sweep's variable is its kind's
    VALUES = {
        "sweep": {"variable": {"system": "epsilon_b", "interaction": "gamma_b"},
                  "start": -1.0, "stop": 1.0, "count": 3},
        "parameters": {"epsilon_a": 0.0, "alpha": 0.8, "gamma": 1.2, "chi": 1.8,
                       "epsilon_b": 1.5, "epsilon": 1.0, "chi_b": 1.2, "gamma_b": 0.7},
        "space": {"d_s": 2, "d_r": 2},
        "matrices": {"h_s_a": "0.5, 0.1, 0.1, -0.5", "h_s_b": "0.8, 0.1, 0.1, -0.8",
                     "h_s": "0.5, 0.1, 0.1, -0.5", "h_r": "0.4, 0, 0, -0.4",
                     "v": "0.1, 0, 0, 0.2, 0, -0.1, 0.3, 0, 0, 0.3, 0.1, 0, 0.2, 0, 0, -0.1",
                     "h_sur_a": "0.5, 0, 0, 0.2, 0, -0.1, 0.3, 0, 0, 0.3, 0.1, 0, 0.2, 0, 0, "
                                "-0.5",
                     "h_sur_b": "0.8, 0, 0, 0.2, 0, -0.4, 0.3, 0, 0, 0.3, 0.4, 0, 0.2, 0, 0, "
                                "-0.8"},
    }

    CASES = [(command, key) for command, reads in cli._READS.items()
             for key in reads.get("inputs", [None])]

    @classmethod
    def sections(cls, tmp_path, command, key) -> dict[str, dict[str, object]]:
        """Every name `command` reads for `key` = (model, quench kind), with a valid value."""
        reads = dict(cli._READS[command])
        inputs = reads.pop("inputs", {}).get(key, {})
        model, kind = key or (None, None)
        run = {"mode": command, "model": model, "quench": kind, "beta": 1.0, "seed": 3,
               "count": 2}
        sweep = {**cls.VALUES["sweep"], "variable": cls.VALUES["sweep"]["variable"].get(kind)}
        values = {**cls.VALUES, "run": run, "sweep": sweep,
                  "output": {"path": tmp_path / "out.csv"}, "tolerances": reads.get("tolerances")}
        names = {**reads, **{section: names.split() for section, names in inputs.items()}}
        return {section: {name: values[section][name] for name in names[section]}
                for section in names}

    @pytest.mark.parametrize("command, key", CASES)
    def test_config_of_exactly_the_listed_names_runs(self, tmp_path, capsys, command, key):
        cfg = write(tmp_path, "e.ini", ini(self.sections(tmp_path, command, key)))
        assert main([command, "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().err == ""

    MISSING = {"parameters": "missing parameter {!r}",
               "matrices": "custom_matrix model needs matrix {!r}",
               "space": "No option {!r} in section: 'space'"}

    @pytest.mark.parametrize("command, key", [case for case in CASES if case[1]])
    def test_each_model_input_is_read(self, tmp_path, capsys, command, key):
        # dropping any one input gives the error of the code that reads it
        sections = self.sections(tmp_path, command, key)
        for section, names in cli._READS[command]["inputs"][key].items():
            for name in names.split():
                del sections[section][name]
                cfg = write(tmp_path, "d.ini", ini(sections))
                sections[section][name] = self.VALUES[section][name]
                assert main([command, "--config", cfg]) == EXIT_CONFIG
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("config error: ")
                assert self.MISSING[section].format(name) in captured.err, (section, name)

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.ini")), ids=lambda p: p.stem)
    def test_data_configs_load_under_their_mode(self, path):
        mode = re.search(r"^mode = (\w+)$", path.read_text(), re.M).group(1)
        assert cli.load_config(str(path), mode).model in ("two_spin", "custom_matrix")
