"""End-to-end driver tests: exit codes, artifacts, determinism.

The heavyweight pipelines run in-process through main(argv) so the
whole module stays fast enough for routine runs; subprocess tests cover
the installed console script, ``python -m conespectra``, a clean stderr
and the spectrum stage at two BLAS thread counts.
"""

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conespectra.cli as cli
import conespectra.grassmann as grassmann
import conespectra.spectral as spectral
from conespectra.spectral import IllConditionedMass

from _reference import invertible


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_module(*argv, **env_vars):
    """``python -m conespectra *argv`` in a fresh process, with extra environment variables."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "conespectra", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def sector_config_dict(out_dir):
    return {
        "geometry": {
            "order_m": 2,
            "dim_n": 2,
            "weight_gamma": -1.0,
            "geometry": {"kind": "sector_link", "alpha": 1.5 * math.pi},
            "outer_radius_R": 1.0,
            "constant_coefficients_near_tip": True,
        },
        "extension": {"a": [1.0, 0.0], "b": [0.0, 0.0]},
        "rays": [0.5 * math.pi, 1.5 * math.pi],
        "discretization": {"N_h": 400},
        "outputs_dir": str(out_dir),
    }


class TestConfigErrors:
    def test_no_subcommand_exits_2(self, capsys):
        assert run_cli() == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = sector_config_dict(tmp_path / "out")
        cfg["model"] = {"anything": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("indicial", "--config", path) == 2
        assert "model" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert run_cli("indicial", "--config", path) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run_cli("indicial", "--config", tmp_path / "absent.json") == 2

    def test_tiny_grid_exits_2(self, tmp_path, capsys):
        assert run_cli("spectrum", "--nh", 8, "--out", tmp_path) == 2
        assert "N_h" in capsys.readouterr().err

    def test_alpha_out_of_range_exits_2(self, tmp_path, capsys):
        assert run_cli("indicial", "--alpha", 6.5, "--out", tmp_path) == 2

    def test_weighted_pencil_exits_2(self, tmp_path, capsys):
        # gamma != -1 supports indicial analysis only
        assert run_cli("spectrum", "--gamma", 0.5, "--nh", 16, "--out", tmp_path) == 2
        assert "weight_gamma" in capsys.readouterr().err

    def test_theta_zero_normal_check_exits_2(self, tmp_path, capsys):
        assert run_cli("normal-check", "--theta", 0.0, "--out", tmp_path) == 2
        assert "cut" in capsys.readouterr().err

    def test_short_flow_schedule_exits_2(self, tmp_path, capsys):
        # the flow runs on one fixed schedule: a length asked for is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            run_cli("flow", "--schedule-len", 4, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "unrecognized arguments: --schedule-len 4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("embed", "--nh", 16),  # fewer singular values than the fit range
            ("embed", "--nh", 10**11),  # dense arrays larger than any numpy array
            ("embed", "--nh", 10**30),
            ("example53", "--nh", 10**11),
            ("example53", "--nh", 10**30),
            ("spectrum", "--alpha", 2.78e-15),  # nu above 2^50, beyond the Bessel oracle
            ("example52", "--gamma", -1.5),  # four-function quotient
            ("normal-check", "--gamma", -2),  # no single 2-dimensional mode quotient
            ("example53", "--gamma", -2),
            ("example53", "--nh", 20),  # too few retained pairs for the residuals
            ("complete", "--nh", 50),  # 49 pairs retain 39, one short of the 40 residual terms
            ("normal-check", "--theta=nan"),  # non-finite inputs
            ("resolvent", "--theta=inf", "--nh", 60),
            ("spectrum", "--a=nan"),
            ("spectrum", "--b-im=inf"),
        ],
    )
    def test_out_of_scope_input_exits_2_before_any_stage(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_complete_runs_on_the_smallest_grid_that_retains_its_residual_counts(self, tmp_path):
        # 49 hats and the enrichment: solve_pencil retains 40 of 50 pairs
        assert spectral.retained_count(51 - 2 + 1) == max(cli.RESIDUAL_COUNTS)
        assert run_cli("complete", "--nh", 51, "--out", tmp_path) == 0

    @staticmethod
    def assert_config_file_exits_2(key, value, tmp_path, capsys, command="embed"):
        cfg = cli._default_config_dict("sector")
        cfg["discretization"][key] = value
        cfg["outputs_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, "--config", path) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        return err

    @pytest.mark.parametrize("key, value", [("N_h", math.inf), ("N_h", math.nan)])
    def test_non_finite_config_file_value_exits_2(self, key, value, tmp_path, capsys):
        self.assert_config_file_exits_2(key, value, tmp_path, capsys)

    @pytest.mark.parametrize("value", [40.7, 400.5, "400", "40", True, [400], None])
    def test_non_integer_grid_size_exits_2(self, value, tmp_path, capsys):
        err = self.assert_config_file_exits_2("N_h", value, tmp_path, capsys)
        assert "N_h must be an integer" in err

    @pytest.mark.parametrize("command", ["spectrum", "embed", "indicial", "example53"])
    def test_grid_size_beyond_the_double_range_exits_2(self, command, tmp_path, capsys):
        # scope checks read N_h as a double, so every command parses it as one
        err = self.assert_config_file_exits_2("N_h", 10**400, tmp_path, capsys, command)
        assert err == "config error: discretization.N_h is out of floating-point range\n"

    def test_integral_float_grid_size_is_an_integer(self, tmp_path, capsys):
        cfg = cli._default_config_dict("sector")
        cfg["discretization"]["N_h"] = 60.0
        cfg["outputs_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("embed", "--config", path) in (0, 1)
        assert read_json(tmp_path / "out" / "embed.json")["N_h"] == 60

    @pytest.mark.parametrize(
        "key, value, flags",
        [
            ("geometry", None, ("--alpha", 4)),
            ("geometry", [1], ("--gamma", -1)),
            ("extension", [1, 2], ("--a", 1)),
            ("discretization", [1], ("--nh", 100)),
        ],
    )
    def test_flag_into_a_non_object_block_exits_2(self, key, value, flags, tmp_path, capsys):
        cfg = sector_config_dict(tmp_path / "out")
        cfg[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("indicial", "--config", path, *flags) == 2
        err = capsys.readouterr().err
        assert f"'{key}' must be a JSON object" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_flag_merges_into_a_bare_real_coefficient(self, tmp_path, capsys):
        # a bare real is a valid a; --a-im supplies its imaginary part
        cfg = sector_config_dict(tmp_path / "out")
        cfg["extension"] = {"a": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        args = cli._build_parser().parse_args(["flow", "--config", str(path), "--a-im", "1"])
        assert cli._config_from_args(args).a == 5 + 1j
        assert run_cli("flow", "--config", path, "--a-im", 1) == 0

    @pytest.mark.parametrize("value", [5, None, [], {"dir": "out"}])
    def test_non_string_outputs_dir_exits_2(self, value, tmp_path, capsys):
        cfg = sector_config_dict(tmp_path / "out")
        cfg["outputs_dir"] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("indicial", "--config", path) == 2
        err = capsys.readouterr().err
        assert "outputs_dir must be a path string" in err
        assert "Traceback" not in err


# out-of-derivation configs: (argv, config block (None: top level), key,
# value, exit code, a line stderr must contain); every row exited 0 or 1,
# or raised, before models checked themselves
SCOPE_TABLE = [
    (("indicial",), "geometry", "order_m", 4, 2, "order_m must be 2"),
    (("indicial",), "geometry", "order_m", 2.5, 2, "order_m must be an integer"),
    (("certify",), "geometry", "dim_n", 3, 2, "dim_n must be 2"),
    (("indicial",), "geometry", "weight_gamma", False, 2, "weight_gamma must be a number"),
    (("indicial",), None, "rays", [True], 2, "rays must be a number"),
    # the grid ratio and the embedding length are constants, not fields
    (("indicial",), "discretization", "grading_q", 0.9, 2, "unknown fields in discretization"),
    (("indicial",), "discretization", "t_max", 20.0, 2, "unknown fields in discretization"),
    (("indicial",), "extension", "a", [True, 0.0], 2, "extension.a must be a number"),
    (
        ("indicial",),
        "geometry",
        "constant_coefficients_near_tip",
        "false",
        2,
        "constant_coefficients_near_tip must be true",
    ),
    (("indicial",), "geometry", "geometry", None, 2, "geometry must be a JSON object"),
    (
        ("indicial",),
        "geometry",
        "geometry",
        {"kind": "sector_link", "alpha": 1e-200},
        2,
        "alpha = 1e-200 is too small",
    ),
    (("example53",), "geometry", "outer_radius_R", 1e-200, 3, "numerical failure in stage 'spectrum'"),
    (("example53",), "geometry", "outer_radius_R", 1e200, 3, "numerical failure in stage 'spectrum'"),
]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


_GEOMETRY_KEYS = ("kind", "alpha", "angle_total")


def _edited_model_block(changes: dict) -> dict:
    """The default sector model block with some fields, its geometry's included, replaced."""
    block = cli._default_config_dict("sector")["geometry"]
    block["geometry"].update((k, v) for k, v in changes.items() if k in _GEOMETRY_KEYS)
    block.update((k, v) for k, v in changes.items() if k not in _GEOMETRY_KEYS)
    return block


_MODEL_FIELDS = st.sampled_from([*cli._default_config_dict("sector")["geometry"], *_GEOMETRY_KEYS])
MODEL_BLOCKS = JSON_VALUES | st.dictionaries(
    _MODEL_FIELDS, st.floats() | JSON_VALUES, max_size=3
).map(_edited_model_block)


class TestOutOfDerivationConfigs:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the exit-3 rows overflow quietly
    @pytest.mark.parametrize(
        "argv, block, key, value, code, line",
        SCOPE_TABLE,
        ids=[f"{row[0][0]}-{row[2]}={row[3]!r}" for row in SCOPE_TABLE],
    )
    def test_config_exits_with_its_code_and_names_the_cause(
        self, argv, block, key, value, code, line, tmp_path, capsys
    ):
        cfg = cli._default_config_dict("sector")
        (cfg if block is None else cfg[block])[key] = value
        cfg["outputs_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(*argv, "--config", path) == code
        err = capsys.readouterr().err
        assert line in err
        assert "Traceback" not in err
        if code == 2:
            assert not (tmp_path / "out").exists()

    def test_unrepresentable_radius_prints_one_line(self, tmp_path):
        # every overflow of the assembly ends in its non-finite check, and
        # numpy prints no RuntimeWarning on the way
        cfg = cli._default_config_dict("sector")
        cfg["geometry"]["outer_radius_R"] = 1e200
        cfg["outputs_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_module("example53", "--config", path)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "numerical failure in stage 'spectrum': the mode pencil on (0, 1e+200] has an entry that is not finite"
        ]

    @pytest.mark.parametrize("command", ["example53", "spectrum"])
    def test_a_narrow_sector_exits_without_a_traceback(self, command, tmp_path, capsys):
        # mode 1 has nu = pi / alpha, about 3.1e10: the Bessel-zero scan runs over a
        # window that grows like nu^(1/3), and the oracle error grows smoothly with nu
        # (4.8e-3 at nu = 10.5, 5.9e-3 at 15.7 on 400 nodes), so this is a threshold miss
        assert run_cli(command, "--alpha", 1e-10, "--nh", 60, "--out", tmp_path) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert read_json(tmp_path / "spectrum.json")["max_relative_error"] > 1.0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(block=MODEL_BLOCKS)
    @example(block=_edited_model_block({"geometry": None}))
    @example(block=_edited_model_block({"alpha": 1e-200}))
    @example(block=_edited_model_block({"weight_gamma": 1e15}))  # no scan from mode 0
    def test_any_model_block_parses_or_is_a_config_error(self, block):
        cfg = cli._default_config_dict("sector")
        cfg["geometry"] = block
        try:
            cli.ExperimentConfig.from_json_dict(cfg)
        except cli.ConfigError:
            pass


class TestExitCodeMapping:
    def test_threshold_miss_exits_1(self, tmp_path, capsys):
        # a 16-node grid cannot hit the 0.5% oracle match
        code = run_cli("spectrum", "--nh", 16, "--out", tmp_path)
        assert code == 1
        payload = read_json(tmp_path / "spectrum.json")
        assert payload["ok"] is False
        assert payload["max_relative_error"] > cli.ORACLE_MATCH_RTOL

    def test_spectrum_pairs_eigenvalues_with_the_nearest_oracle_roots(self, tmp_path, capsys):
        # seeded closed-link pair: at N_h = 100 the pencil sorts its copy of the
        # off-axis root -65.76-170.95i 4th by modulus and the oracle 5th; pairing by
        # sorted index read 1.614 there, the nearest-root pairing reads 0.140
        cfg = cli._default_config_dict("closed")
        a, b = (-1.1606431576220568 - 0.0036792633802781066j, -0.4408554390768262 + 0.10509835798959383j)
        cfg["extension"] = {"a": [a.real, a.imag], "b": [b.real, b.imag]}
        cfg["discretization"]["N_h"] = 100
        cfg["outputs_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("spectrum", "--config", path) == 1
        payload = read_json(tmp_path / "out" / "spectrum.json")
        assert payload["max_relative_error"] == pytest.approx(0.1402, abs=1e-3)
        assert payload["max_relative_error"] == max(payload["relative_errors"])
        moduli = [math.hypot(*z) for z in payload["eigenvalues_smallest"]]
        assert moduli == sorted(moduli)
        assert abs(complex(*payload["eigenvalues_smallest"][3]) - (-51.29 - 149.73j)) < 0.01

    def test_spectrum_reports_solver_diagnostics(self, tmp_path, capsys):
        run_cli("spectrum", "--nh", 60, "--out", tmp_path)
        payload = read_json(tmp_path / "spectrum.json")
        assert 1.0 < payload["mass_condition"] <= 1e12
        assert 0.0 < payload["max_retained_residual"] < 1e-6

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def explode(pencil):
            raise IllConditionedMass("synthetic failure")

        monkeypatch.setattr(cli, "solve_pencil", explode)
        assert run_cli("spectrum", "--out", tmp_path) == 3
        err = capsys.readouterr().err
        assert "numerical failure in stage 'spectrum'" in err

    def test_secular_iteration_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # one Aberth sweep cannot settle every eigenvalue of the
        # non-self-adjoint pencil (the default one is Hermitian)
        monkeypatch.setattr(spectral, "_ABERTH_SWEEPS", 1)
        argv = ["example53", "--a", "1", "--b-im", "1", "--nh", "60", "--out", str(tmp_path)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "numerical failure in stage 'spectrum'" in err
        assert "Aberth" in err

    def test_failure_keeps_the_times_of_the_stages_before_it(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise IllConditionedMass("synthetic failure")

        monkeypatch.setattr(cli, "ray_minimal_growth_full", explode)
        assert run_cli("resolvent", "--nh", 60, "--out", tmp_path) == 3
        timings = read_json(tmp_path / "timings.json")
        assert [t["stage"] for t in timings["stages"]] == ["spectrum"]

    def test_out_of_memory_exits_3_and_names_the_stage(self, tmp_path, capsys, monkeypatch):
        def exhaust(pencil):
            raise MemoryError("Unable to allocate 18.6 GiB for an array")

        monkeypatch.setattr(cli, "solve_pencil", exhaust)
        assert run_cli("spectrum", "--out", tmp_path) == 3
        err = capsys.readouterr().err
        assert "out of memory in stage 'spectrum': Unable to allocate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_h, code", [(10**30, 2), (10**11, 2), (10**8, 3)])
    def test_scope_checks_never_build_the_grid(self, n_h, code, tmp_path, capsys, monkeypatch):
        # from about 1.07e9 on, the dense arrays need more bytes than a numpy array
        # can count, so scope refuses it; 10**8 passes scope and only the stage builds the grid
        def refuse(R, N_h, q):
            raise MemoryError(f"no grid of {N_h} nodes")

        monkeypatch.setattr(cli.RadialGrid, "geometric", refuse)
        cfg = cli._default_config_dict("sector")
        cfg["discretization"]["N_h"] = n_h
        run = cli.Run(cli.ExperimentConfig.from_json_dict(cfg))
        if code == 2:
            with pytest.raises(cli.ConfigError, match="more bytes than one numpy array can hold"):
                cli._dense_reduction_fits(run)
        else:
            for check in (check for stage in cli._with_needs("spectrum") for check in stage.scope):
                check(run)
        assert run_cli("spectrum", "--nh", n_h, "--out", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        if code == 3:
            assert f"out of memory in stage 'spectrum': no grid of {n_h} nodes" in err

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(n_h=st.integers(16, 10**30))
    def test_any_grid_size_is_scope_checked_without_building_it(self, n_h):
        cfg = cli._default_config_dict("sector")
        cfg["discretization"]["N_h"] = n_h
        run = cli.Run(cli.ExperimentConfig.from_json_dict(cfg))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli.RadialGrid, "geometric", None)  # calling it raises TypeError
            for check in (check for stage in cli.STAGES for check in stage.scope):
                with contextlib.suppress(cli.ConfigError):
                    check(run)

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["is-a-file", "under-a-file"])
    def test_outputs_dir_that_cannot_be_created_exits_2(self, below, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run_cli("indicial", "--out", blocker.joinpath(*below)) == 2
        err = capsys.readouterr().err
        assert f"config error: outputs_dir {str(blocker.joinpath(*below))!r} cannot be created" in err
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
        assert blocker.read_text() == ""


SUBCOMMANDS = (
    "indicial",
    "flow",
    "normal-check",
    "spectrum",
    "resolvent",
    "complete",
    "embed",
    "certify",
    "example52",
    "example53",
)


def _optional_flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v!r}"]))


_finite = dict(allow_nan=False, allow_infinity=False)
FLAG_SETS = st.tuples(
    *(
        _optional_flag(name, st.floats(**_finite))
        for name in ("alpha", "gamma", "a", "a-im", "b", "b-im", "theta")
    ),
    st.integers(16, 60).map(lambda n: [f"--nh={n}"]),
).map(lambda flags: [arg for flag in flags for arg in flag])


class TestParser:
    def test_every_subcommand_takes_exactly_the_readme_flags(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = text.split("Every subcommand accepts", 1)[1].split(". ", 1)[0]
        documented = set(re.findall(r"--[a-z-]+", sentence))
        assert documented == {
            "--config", "--alpha", "--gamma", "--a", "--a-im",
            "--b", "--b-im", "--theta", "--nh", "--out",
        }
        parser = cli._build_parser()
        flags = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        assert flags == documented
        (command,) = (a for a in parser._actions if a.dest == "command")
        assert set(command.choices) == set(SUBCOMMANDS)

    def test_the_readme_config_example_parses(self):
        # the schema block is the README's first JSON block; a removed field there fails here
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = cli.ExperimentConfig.from_json_dict(json.loads(block))
        assert cfg.to_json_dict()["discretization"] == {"N_h": 400}

    @pytest.mark.parametrize(
        "argv, code, stream",
        [
            ([], 2, "out"),
            (["bogus"], 2, "err"),
            (["spectrum", "--nh", "x"], 2, "err"),
            (["spectrum", "--bogus"], 2, "err"),
            (["spectrum", "--help"], 0, "out"),
        ],
    )
    def test_usage_errors_exit_2_and_help_exits_0(self, argv, code, stream, capsys):
        # as the console script does: sys.exit(main())
        with pytest.raises(SystemExit) as exc:
            sys.exit(cli.main(argv))
        assert exc.value.code == code
        printed = getattr(capsys.readouterr(), stream)
        assert printed.startswith("usage: conespectra")
        assert "Traceback" not in printed

    def test_a_flag_may_come_before_the_subcommand(self, tmp_path, capsys):
        assert cli.main(["--out", str(tmp_path), "indicial"]) == 0
        assert (tmp_path / "indicial.json").exists()


class TestExitCodeProperty:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(command=st.sampled_from(SUBCOMMANDS), flags=FLAG_SETS)
    # nu = 3.1e17 is beyond the Bessel oracle, whose scan would divide by zero there
    @example(command="spectrum", flags=["--alpha=1e-17", "--nh=16"])
    def test_any_flag_set_exits_with_a_documented_code(self, command, flags):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            argv = [command, *flags, "--out", out]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["indicial", "normal-check", "spectrum"]),
        # alpha = 2 pi 10^-e gives mode 1 an order nu = pi / alpha from 1/2 to 5e19, past
        # the Bessel limit 2^50; a tiny e rounds alpha to 2 pi, which is no sector
        alpha=st.floats(0.0, 20.0, exclude_min=True)
        .map(lambda e: 2.0 * math.pi * 10.0**-e)
        .filter(lambda a: a < 2.0 * math.pi),
        gamma=st.just(-1.0) | st.floats(-1.0 - 1e-6, -1.0 + 1e-6),
    )
    @example(command="spectrum", alpha=math.pi / spectral.BESSEL_ORDER_LIMIT, gamma=-1.0)
    @example(command="spectrum", alpha=math.pi / (2.0 * spectral.BESSEL_ORDER_LIMIT), gamma=-1.0)
    def test_any_narrow_sector_exits_with_a_documented_code(self, command, alpha, gamma):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            argv = [command, f"--alpha={alpha!r}", f"--gamma={gamma!r}", "--nh=60", "--out", out]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv


_ANY_LINE = st.tuples(*[st.floats(**_finite)] * 4).filter(any)


class TestLineSpaceProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["sector", "closed"]),
        coeffs=_ANY_LINE,
        rays=st.lists(
            st.floats(0.0, 2.0 * math.pi, exclude_min=True, exclude_max=True), min_size=1, max_size=3
        ),
    )
    @example(kind="sector", coeffs=(1.0, 0.0, 1e-20, 0.0), rays=[0.5 * math.pi, 1.5 * math.pi])
    @example(kind="sector", coeffs=(1.0, 0.0, -1e-300, 0.0), rays=[math.pi])
    @example(kind="sector", coeffs=(1e300, -1e300, 5e-324, 1e-300), rays=[math.pi, 1.0])
    @example(kind="closed", coeffs=(30.0, 0.0, 1.0, 0.0), rays=[math.pi])
    @example(kind="closed", coeffs=(5e-324, 0.0, 0.0, -5e-324), rays=[1e-300, 6.283185307179585])
    def test_any_line_flows_and_is_checked_without_error(self, kind, coeffs, rays):
        # every finite line that is not all zero: the flow meets its closed form,
        # both commands exit 0, and each Fails witness is an eigenvalue
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            cfg = cli._default_config_dict(kind)
            cfg.update(extension={"a": coeffs[:2], "b": coeffs[2:]}, rays=rays, outputs_dir=tmp)
            (out / "cfg.json").write_text(json.dumps(cfg))
            for command in ("flow", "normal-check"):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    assert cli.main([command, "--config", str(out / "cfg.json")]) == 0, err.getvalue()
                assert "Traceback" not in err.getvalue()
                assert read_json(out / "flow.json")["ok"] is True
            model = cli.ExperimentConfig.from_json_dict(cfg).model
            for verdict in read_json(out / "normal_check.json")["verdicts"]:
                if verdict["verdict"] == "Fails":
                    line = cli.ExtensionDomain.line([complex(*z) for z in verdict["witness"]["domain"]])
                    lam = complex(*verdict["witness"]["lambda"])
                    assert invertible(model, line, lam) is False


class TestStandaloneStages:
    def test_indicial_sector_default(self, tmp_path, capsys):
        assert run_cli("indicial", "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert "critical strip" in out
        payload = read_json(tmp_path / "indicial.json")
        assert payload["critical_strip"] == [-1.0, 1.0]
        assert payload["quotient_dim_D"] == 2
        assert payload["dmin_is_weighted_sobolev"] is True

    def test_indicial_gamma_override(self, tmp_path, capsys):
        # other weights shift the strip; indicial analysis still runs
        assert run_cli("indicial", "--gamma", 0.5, "--out", tmp_path) == 0
        payload = read_json(tmp_path / "indicial.json")
        assert payload["critical_strip"] == [-2.5, -0.5]

    def test_indicial_alpha_override_trivial_quotient(self, tmp_path, capsys):
        assert run_cli("indicial", "--alpha", 1.0, "--out", tmp_path) == 0
        payload = read_json(tmp_path / "indicial.json")
        assert payload["quotient_dim_D"] == 0
        assert payload["singular_basis"] == []

    def test_flow_sector(self, tmp_path, capsys):
        assert run_cli("flow", "--out", tmp_path) == 0
        assert "flow limits: 1" in capsys.readouterr().out
        payload = read_json(tmp_path / "flow.json")
        assert payload["ok"] is True
        assert payload["distance_regime"] == "power"
        rows = (tmp_path / "flow.csv").read_text().strip().splitlines()
        assert rows[0] == "rho,distance"
        assert len(rows) == 65

    @pytest.mark.parametrize(
        "kind, a, b",
        [
            ("closed", 30.0, 1.0),
            ("closed", 44.0, 1.0),
            ("sector", 1.0, 1e-20),
            ("sector", 1.0, 1e-300),
            ("sector", 1e3, 1e-20),
        ],
    )
    def test_slow_orbit_meets_its_closed_form(self, kind, a, b, tmp_path, capsys):
        # each orbit is still far from its limit at rho = 1e-16, the schedule's end
        cfg = cli._default_config_dict(kind)
        cfg["outputs_dir"] = str(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        line = cli.ExtensionDomain.line([a, b])
        model = cli.ExperimentConfig.from_json_dict(cfg).model
        orbit, limit = grassmann.omega_minus(line, cli.singular_basis(model))
        assert len(orbit) == 64
        exact = [0.0, 1.0] if kind == "sector" else [1.0, 0.0]
        assert limit.coeffs.tolist() == exact
        assert run_cli("flow", "--config", path, "--a", a, "--b", b) == 0
        payload = read_json(tmp_path / "flow.json")
        assert payload["ok"] is True
        assert payload["limits"] == [[[[x, 0.0]] for x in exact]]
        assert payload["max_relative_deviation"] <= payload["deviation_tolerance"] == 1e-12
        assert len((tmp_path / "flow.csv").read_text().strip().splitlines()) == 65

    @pytest.mark.parametrize(
        "kind, argv, modulus",
        [
            (
                "sector",
                ("--b", 0, "--b-im", 1, "--theta", 5.497787143782138),
                4 * (math.gamma(5 / 3) / math.gamma(1 / 3)) ** 1.5,
            ),
            (
                "closed",
                ("--b", 0, "--b-im", 1, "--theta", 1.1415926535897931),
                4 * math.exp(-2 * np.euler_gamma),
            ),
            ("closed", ("--b", 1, "--theta", math.pi), 4 * math.exp(2 * (1 - np.euler_gamma))),
        ],
    )
    def test_normal_check_reports_the_eigenvalue_on_the_ray(self, kind, argv, modulus, tmp_path, capsys):
        # [1 : i] and [1 : 1] meet the decaying trace once on each of these rays
        cfg = cli._default_config_dict(kind)
        cfg["outputs_dir"] = str(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("normal-check", "--config", path, "--a", 1, *argv) == 0
        assert capsys.readouterr().out.endswith(": Fails\n")
        (verdict,) = read_json(tmp_path / "normal_check.json")["verdicts"]
        lam = complex(*verdict["witness"]["lambda"])
        assert lam == pytest.approx(modulus * cmath.exp(1j * argv[-1]), rel=1e-14)

    def test_normal_check_default_rays(self, tmp_path, capsys):
        assert run_cli("normal-check", "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert out.count("Minimal") == 2
        payload = read_json(tmp_path / "normal_check.json")
        assert payload["ok"] is True

    def test_embed_default(self, tmp_path, capsys):
        assert run_cli("embed", "--out", tmp_path) == 0
        payload = read_json(tmp_path / "embed.json")
        lo, hi = payload["expected_p_window"]
        assert lo <= payload["implied_p"] <= hi
        assert (tmp_path / "fits.csv").exists()

    def test_omitted_config_blocks_read_the_defaults(self):
        # a file with the model block alone parses to the flag-free default config
        full = cli._default_config_dict("sector")
        bare = cli.ExperimentConfig.from_json_dict({"geometry": full["geometry"]})
        assert bare.to_json_dict() == cli.ExperimentConfig.from_json_dict(full).to_json_dict()
        assert bare.to_json_dict() == sector_config_dict("out")

    def test_config_file_with_override(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(sector_config_dict(out_dir)))
        assert run_cli("indicial", "--config", path) == 0
        assert (out_dir / "indicial.json").exists()
        # flags override the file
        assert run_cli("indicial", "--config", path, "--alpha", 1.0) == 0
        assert read_json(out_dir / "indicial.json")["quotient_dim_D"] == 0

    @pytest.mark.parametrize("command", [c for c in SUBCOMMANDS if not c.startswith("example")])
    def test_subcommand_writes_the_readme_artifacts(self, command, tmp_path, capsys):
        assert run_cli(command, "--nh", 60, "--out", tmp_path) in (0, 1)
        written = {p.name for p in tmp_path.iterdir()}
        assert written == readme_artifacts(command) | {"timings.json"}


def readme_artifacts(command) -> set:
    """The files the README's artifact table lists for a subcommand, references expanded."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| command | artifacts |", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.+) \|$", table, re.MULTILINE))
    cell = rows[command]
    files = set(re.findall(r"`(\w+\.\w+)`", cell))
    for refs in re.findall(r"the (.+?) artifacts", cell):
        for name in re.findall(r"`([a-z-]+)`", refs):
            files |= readme_artifacts(name)
    return files


@pytest.fixture(scope="module")
def sector_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex53")
    code = cli.main(["example53", "--out", str(out)])
    return code, out


class TestFullPipelines:
    def test_sector_pipeline_passes(self, sector_run):
        code, out = sector_run
        assert code == 0
        report = read_json(out / "report.json")
        assert report["passed"] is True
        assert set(report["stages"]) == {
            "indicial",
            "flow",
            "normal_check",
            "spectrum",
            "resolvent",
            "completeness",
            "certificate",
        }
        assert report["stages"]["spectrum"]["enriched"] is True
        assert report["stages"]["certificate"]["certificate"]["complete"] is True

    def test_sector_pipeline_artifacts(self, sector_run):
        _, out = sector_run
        for name in (
            "indicial.json",
            "flow.json",
            "flow.csv",
            "normal_check.json",
            "spectrum.json",
            "spectrum.csv",
            "pencil.bin",
            "rays.csv",
            "resolvent.json",
            "completeness.csv",
            "complete.json",
            "certificate.json",
            "report.json",
        ):
            assert (out / name).exists(), name

    def test_timings_name_every_stage_that_ran(self, sector_run, tmp_path, capsys):
        _, out = sector_run
        timings = read_json(out / "timings.json")
        ran = [stage.name for stage in cli.STAGES if stage.report is not None]
        assert [t["stage"] for t in timings["stages"]] == ran
        assert all(t["wall_s"] >= 0.0 for t in timings["stages"])
        assert set(timings["versions"]) == {"conespectra", "numpy", "scipy"}
        # provenance: the BLAS builds, the thread variables and the config hash
        for module in ("numpy", "scipy"):
            assert set(timings["blas"][module]) == {"name", "version"}
            assert isinstance(timings["blas"][module]["name"], str)
        assert set(timings["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        for var, value in timings["thread_env"].items():
            assert value == os.environ.get(var)
        config = read_json(out / "report.json")["config"]
        del config["outputs_dir"]
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert timings["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
        # a subcommand times the stages it reads as well as its own
        assert run_cli("certify", "--nh", 60, "--out", tmp_path) in (0, 1)
        timings = read_json(tmp_path / "timings.json")
        expected = ["flow", "normal-check", "spectrum", "resolvent", "certify"]
        assert [t["stage"] for t in timings["stages"]] == expected
        assert all(t["wall_s"] >= 0.0 for t in timings["stages"])
        # the same experiment written elsewhere shares the hash; another N_h does not
        assert timings["config_sha256"] != read_json(out / "timings.json")["config_sha256"]
        assert run_cli("certify", "--nh", 60, "--out", tmp_path / "again") in (0, 1)
        assert read_json(tmp_path / "again" / "timings.json")["config_sha256"] == timings["config_sha256"]
        # and none of it reaches stdout or the report
        stdout = capsys.readouterr().out
        assert timings["config_sha256"] not in stdout and "OPENBLAS" not in stdout
        assert "config_sha256" not in (out / "report.json").read_text()

    def test_sector_rerun_is_deterministic(self, sector_run, tmp_path, capsys):
        _, first = sector_run
        second = tmp_path / "again"
        assert cli.main(["example53", "--out", str(second)]) == 0
        for name in (
            "flow.csv",
            "spectrum.csv",
            "rays.csv",
            "completeness.csv",
            "pencil.bin",
            "indicial.json",
            "flow.json",
            "normal_check.json",
            "spectrum.json",
            "resolvent.json",
            "complete.json",
            "certificate.json",
        ):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # the report differs only in the echoed outputs directory
        rep1 = read_json(first / "report.json")
        rep2 = read_json(second / "report.json")
        assert rep1["config"].pop("outputs_dir") != rep2["config"].pop("outputs_dir")
        assert rep1 == rep2

    def test_resolvent_reports_its_slope_window(self, sector_run):
        _, out = sector_run
        payload = read_json(out / "resolvent.json")
        assert read_json(out / "report.json")["stages"]["resolvent"] == payload
        assert payload["slope_window"] == list(cli.SLOPE_WINDOW) == [-1.15, -0.85]
        lo, hi = payload["slope_window"]
        minimal = [v for v in payload["verdicts"] if v["verdict"] == "Minimal"]
        assert minimal
        assert all(lo <= v["slope"] <= hi for v in minimal)

    def test_solve_counters_are_integers_and_rerun_equal(self, sector_run, tmp_path, capsys):
        _, first = sector_run
        names = ("aberth_sweeps", "deflated_poles", "refined_pairs")
        counters = {name: read_json(first / "spectrum.json")[name] for name in names}
        assert all(type(value) is int and value >= 0 for value in counters.values()), counters
        second = tmp_path / "again"
        assert cli.main(["example53", "--out", str(second)]) == 0
        assert {name: read_json(second / "spectrum.json")[name] for name in names} == counters

    def test_closed_pipeline_passes(self, tmp_path, capsys):
        out = tmp_path / "ex52"
        assert cli.main(["example52", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["passed"] is True
        assert report["stages"]["spectrum"]["nu"] == 0.0
        assert report["stages"]["flow"]["distance_regime"] == "log"
        assert report["stages"]["spectrum"]["enriched"] is True

    def test_example53_probes_each_point_once(self, tmp_path, capsys, monkeypatch):
        counts = {}

        def count(module, name):
            original = getattr(module, name)
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(spectral, "resolvent_norm")
        count(spectral, "_to_arrowhead")
        count(spectral, "_bisect")
        count(cli, "omega_minus")
        count(grassmann, "flow")
        count(cli, "ray_minimal_growth_normal")
        count(cli, "ray_minimal_growth_full")
        # the coarse grid may miss the oracle threshold (exit 1); every stage still runs
        assert cli.main(["example53", "--nh", "60", "--out", str(tmp_path)]) in (0, 1)
        assert (tmp_path / "certificate.json").exists()
        rays = cli.DEFAULT_RAYS
        assert counts["resolvent_norm"] == len(rays) * 4 == 8
        # each probe finds sigma_min by one bisection
        assert counts["_bisect"] == counts["resolvent_norm"]
        # the probes read the solve's own reduction instead of making another
        assert counts["_to_arrowhead"] == 1
        # the flow stage computes the orbit and its limit set Omega^- once, and
        # flow.csv and the normal check read them instead of flowing again
        assert counts["omega_minus"] == 1
        assert counts["flow"] == len(grassmann.RHO_SCHEDULE) == 64
        assert counts["ray_minimal_growth_normal"] == len(rays) == 2
        assert counts["ray_minimal_growth_full"] == len(rays) == 2

    def test_friedrichs_sector_short_circuits(self, tmp_path, capsys):
        # alpha = 1: no strip roots, D_min = D_max, spectrum only
        out = tmp_path / "narrow"
        assert cli.main(["example53", "--alpha", "1.0", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "short-circuiting" in stdout
        report = read_json(out / "report.json")
        assert set(report["stages"]) == {"indicial", "spectrum"}
        assert "D_min = D_max" in report["notes"]
        assert report["stages"]["spectrum"]["enriched"] is False


# rescaled extension lines, each with the unit line it must reproduce
RESCALED_LINES = [
    (("example53", "--a", 100, "--b-im", 100), ("example53", "--a", 1, "--b-im", 1)),
    (("example53", "--a", 1, "--b-im", 100), ("example53", "--a", 0.01, "--b-im", 1)),
    (("example52", "--a", 1000, "--b-im", 1000), ("example52", "--a", 1, "--b-im", 1)),
    (("spectrum", "--a", 1e200, "--b-im", 1e200), ("spectrum", "--a", 1, "--b-im", 1)),
    (("example53", "--a", 1e-300), ("example53",)),
    (("example53", "--a", 1e-320), ("example53",)),
]


class TestExtensionLineScale:
    @pytest.mark.parametrize("scaled, unit", RESCALED_LINES)
    def test_rescaled_line_runs_as_its_unit_line(self, scaled, unit, tmp_path, capsys):
        runs = []
        for argv in (unit, scaled):
            out = tmp_path / f"run{len(runs)}"
            code = run_cli(*argv, "--out", out)
            runs.append((code, capsys.readouterr().out, out))
        (unit_code, unit_stdout, unit_out), (code, stdout, out) = runs
        assert code == unit_code == 0
        assert stdout == unit_stdout
        names = sorted(p.name for p in unit_out.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            if name == "report.json":
                # the config echo keeps the raw (a, b)
                report, unit_report = read_json(out / name), read_json(unit_out / name)
                assert report["config"]["extension"] != unit_report["config"]["extension"]
                assert (report["stages"], report["passed"]) == (unit_report["stages"], unit_report["passed"])
            elif name != "timings.json":
                assert (out / name).read_bytes() == (unit_out / name).read_bytes(), name


class TestFlowPrecision:
    def test_power_regime_distances_match_the_closed_form(self, tmp_path, capsys):
        # on the 3π/2 sector nu = 2/3, so [1 : i] flows to [rho^(2/3) : i rho^(-2/3)],
        # whose sine to the limit [0 : 1] is rho^(4/3) / sqrt(1 + rho^(8/3))
        def exact(rho):
            return rho ** (4.0 / 3.0) / math.sqrt(1.0 + rho ** (8.0 / 3.0))

        assert run_cli("example53", "--a", 1, "--b-im", 1, "--out", tmp_path) == 0
        rows = (tmp_path / "flow.csv").read_text().strip().splitlines()[1:]
        for rho, dist in (map(float, row.split(",")) for row in rows):
            assert dist == pytest.approx(exact(rho), rel=1e-12, abs=0.0), rho
        payload = read_json(tmp_path / "flow.json")
        assert payload["distance_regime"] == "power"
        assert payload["terminal_distance_at_1e-8"] == pytest.approx(exact(1e-8), rel=1e-12, abs=0.0)


class TestThreadCounts:
    def test_spectrum_stage_agrees_across_blas_thread_counts(self, tmp_path):
        # threaded BLAS-3 in the eigensolve rounds differently per thread
        # count, so the numbers agree to the backward error, not to the byte
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_module("spectrum", "--a", 1, "--b-im", 1, "--out", out, OPENBLAS_NUM_THREADS=threads)
            rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
            runs.append((proc.returncode, proc.stdout, read_json(out / "spectrum.json"), rows[:, 1] + 1j * rows[:, 2]))
        (code1, stdout1, one, lam1), (code2, stdout2, two, lam2) = runs
        assert code1 == code2 == 0
        assert stdout1 == stdout2
        for key in ("ok", "n_retained", "mode_k", "nu", "enriched"):
            assert one[key] == two[key], key
        assert one["oracle"] == two["oracle"]  # the oracle runs no threaded BLAS
        tol = max(one["max_retained_residual"], two["max_retained_residual"])
        assert lam1.shape == lam2.shape
        assert np.max(np.abs(lam1 - lam2) / np.abs(lam1)) <= tol


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("conespectra")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "indicial", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "critical strip" in proc.stdout

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        proc = run_module("indicial", "--out", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "critical strip" in proc.stdout
        assert (tmp_path / "indicial.json").exists()
