import argparse
import hashlib
import json
import math
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cfstats import cli
from cfstats.cli import OPTIONS, ExperimentConfig, build_parser, main, write_json
from cfstats.schemas import SCHEMAS

README = Path(__file__).resolve().parent.parent / "README.md"


def run(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestEnumerate:
    def test_gauss_totient_rows(self, tmp_path):
        out = tmp_path / "o"
        assert run(
            ["enumerate", "--algorithm", "gauss", "--denominator-bound", "5",
             "--targets", "1,2", "--out", str(out)]
        ) == 0
        lines = read(out / "trajectories.csv").decode().strip().split("\n")
        assert lines[0].startswith("# schema=")
        assert lines[1] == "denominator,num1,depth,weight,N_1,N_2"
        assert len(lines) == 2 + 9

    def test_jp_bound_two_rows(self, tmp_path):
        out = tmp_path / "o"
        assert run(
            ["enumerate", "--algorithm", "jp2", "--denominator-bound", "2",
             "--targets", "1:2", "--out", str(out)]
        ) == 0
        lines = read(out / "trajectories.csv").decode().strip().split("\n")
        rows = [ln.split(",") for ln in lines[2:]]
        pts = {(r[0], r[1], r[2]) for r in rows}
        assert pts == {("2", "1", "0"), ("2", "1", "1"), ("2", "1", "2"), ("2", "2", "1")}

    def test_empty_targets_rejected(self, tmp_path):
        assert run(
            ["enumerate", "--algorithm", "gauss", "--denominator-bound", "5",
             "--targets", "", "--out", str(tmp_path / "o")]
        ) == 1

    def test_budget_exit_code(self, tmp_path):
        assert run(
            ["enumerate", "--algorithm", "gauss", "--denominator-bound", "100",
             "--targets", "1", "--budget", "10", "--out", str(tmp_path / "o")]
        ) == 3

    def test_oversized_gauss_table_exit_code(self, tmp_path):
        # within --budget, but the Gauss DP states would exceed physical memory
        assert run(
            ["stats", "--algorithm", "gauss", "--denominator-bound", "10000000",
             "--targets", "1", "--budget", "10000000", "--out", str(tmp_path / "o")]
        ) == 3

    # SHA-256 of trajectories.csv and its number of records, for each map
    # at two bounds, as the record path writes them
    @pytest.mark.parametrize("algorithm, targets, bound, n, pin", [
        ("gauss", "1,2", 60, 1101, "da622ba334fadb414c7eb6c764600c6b5798ea1d05ec7b55bf206dc84048dc39"),
        ("gauss", "1,2", 300, 27397, "0b9cf5f18b42cf06a29cc0b64002aa472995b3428b4e901cad0b76b2a29da8f7"),
        ("brun2", "1,2", 12, 287, "f65390dcf631a1224fc1a90bd149a3cb5ec45d54bb987c2b824351a07d0cd5d6"),
        ("brun2", "1,2", 40, 9389, "86dd82f99a47a4de4cd3e30c0c6c7bafbdb5e80f2ac0a2818349cdac0296c9a2"),
        ("jp2", "1:2,0:1", 8, 148, "622d19ce30c84a5f1eb80b1508fa257ca0405aa46a4adcda257b2732f163848d"),
        ("jp2", "1:2,0:1", 20, 2025, "2f767d2d193dac1411c0e140a4e43900eb350b2ef7f3a247f430c5bdab74e543"),
        ("brun3", "1,2", 8, 289, "1ed69819ddc3e9441e086e0c7290a791978929685079640cdbd3e9eb7c47b0c0"),
        ("brun3", "1,2", 16, 3462, "69f0b22163b2df56286168273a39f9990c40e1d3805921757b8ab0fc0f6972db"),
    ], ids=["gauss-60", "gauss-300", "brun2-12", "brun2-40", "jp2-8", "jp2-20", "brun3-8", "brun3-16"])
    def test_trajectories_bytes_pinned(self, tmp_path, algorithm, targets, bound, n, pin):
        out = tmp_path / "o"
        assert run(["enumerate", "--algorithm", algorithm, "--targets", targets,
                    "--denominator-bound", str(bound), "--out", str(out)]) == 0
        data = read(out / "trajectories.csv")
        assert (data.count(b"\n") - 2, hashlib.sha256(data).hexdigest()) == (n, pin)

    def test_Q_bound_keeps_the_last_denominator_below_Q(self):
        # exp(Q / 3) rounds to just below 8 although 3 log 8 < Q
        Q = math.nextafter(3 * math.log(8), math.inf)
        assert ExperimentConfig(algorithm="jp2", Q=Q).bound() == 8

    def test_both_bounds_rejected(self, tmp_path):
        assert run(
            ["enumerate", "--algorithm", "gauss", "--denominator-bound", "5",
             "--Q", "3.0", "--targets", "1", "--out", str(tmp_path / "o")]
        ) == 1

    @pytest.mark.parametrize("algorithm, targets, Q, bound", [
        ("gauss", "1,2", 8.48, 69),  # 2 log 69 < 8.48 < 2 log 70
        ("jp2", "1:2,0:1", 7.5, 12),  # 3 log 12 < 7.5 < 3 log 13
    ])
    def test_Q_run_equals_its_denominator_bound_run(self, tmp_path, monkeypatch, algorithm, targets, Q, bound):
        args = ["--algorithm", algorithm, "--targets", targets]
        assert run(["enumerate", *args, "--Q", str(Q), "--out", str(tmp_path / "q")]) == 0
        assert run(["enumerate", *args, "--denominator-bound", str(bound), "--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "q" / "trajectories.csv") == read(tmp_path / "b" / "trajectories.csv")

        by_Q = cli._build_table(ExperimentConfig(algorithm=algorithm, Q=Q, targets=cli.labels(targets)))
        by_bound = cli._build_table(
            ExperimentConfig(algorithm=algorithm, denominator_bound=bound, targets=cli.labels(targets))
        )
        for name in ("qs", "counts", "mult", "denominator_bound"):
            assert np.array_equal(getattr(by_Q, name), getattr(by_bound, name))

        # the summary normalises by Q, not by the bound's weight, so compare
        # it with the run that also restricts the table to w < Q
        grid = ["--grid", "8", "--jmax", "8"]
        assert run(["stats", *args, *grid, "--Q", str(Q), "--out", str(tmp_path / "s")]) == 0
        build = cli._build_table
        monkeypatch.setattr(cli, "_build_table", lambda cfg: build(cfg).restrict_weight(cfg.Q))
        assert run(["stats", *args, *grid, "--Q", str(Q), "--out", str(tmp_path / "r")]) == 0
        for name in ("summary.json", "histogram.csv"):
            assert read(tmp_path / "s" / name) == read(tmp_path / "r" / name)


class TestStats:
    ARGS = ["--algorithm", "gauss", "--denominator-bound", "120", "--targets", "1,2",
            "--grid", "64", "--jmax", "256"]

    def test_summary_fields(self, tmp_path):
        out = tmp_path / "o"
        assert run(["stats", *self.ARGS, "--out", str(out)]) == 0
        data = json.loads(read(out / "summary.json"))
        assert data["schema_version"] == "cfstats.v1"
        assert data["ensemble_size"] == sum(
            1 for q in range(2, 121) for p in range(1, q) if math.gcd(p, q) == 1
        )
        assert len(data["lambda_empirical"]) == 2
        assert len(data["covariance_spectral"]) == 2
        assert (out / "histogram.csv").exists()
        assert (out / "schema.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        run(["stats", *self.ARGS, "--out", str(o1)])
        run(["stats", *self.ARGS, "--out", str(o2)])
        assert read(o1 / "summary.json") == read(o2 / "summary.json")
        assert read(o1 / "histogram.csv") == read(o2 / "histogram.csv")

    def test_threads_option_is_a_usage_error(self, tmp_path, capsys):
        assert run(["stats", *self.ARGS, "--threads", "2", "--out", str(tmp_path / "o")]) == 1
        assert "error: unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [["stats", "--bogus", "1"], ["stats", "--grid", "x"], []],
                             ids=["unknown-option", "malformed-value", "no-command"])
    def test_usage_errors_exit_one(self, args, capsys):
        # exit code 2 is kept for a failed criterion
        assert run(args) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "algorithm": "gauss", "denominator_bound": 60, "targets": [1],
            "grid": 64, "jmax": 256,
        }))
        out = tmp_path / "o"
        assert run(["stats", "--config", str(cfgfile), "--denominator-bound", "80",
                    "--out", str(out)]) == 0
        data = json.loads(read(out / "summary.json"))
        assert data["config"]["denominator_bound"] == 80  # flag wins

    @pytest.mark.parametrize("key", ["threads", "denominator-bound"])
    def test_unknown_config_key_is_a_validation_error(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"algorithm": "gauss", "denominator_bound": 60, key: 2}))
        assert run(["stats", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
        assert f"error: unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_ensemble_is_a_validation_error(self, tmp_path, capsys):
        assert run(["stats", "--algorithm", "gauss", "--denominator-bound", "1",
                    "--targets", "1", "--out", str(tmp_path / "o")]) == 1
        assert "error: empty ensemble" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "clt", "ldp"])
    def test_brun3_rejected_before_enumeration(self, tmp_path, capsys, monkeypatch, command):
        from cfstats import cli

        def no_table(cfg):
            raise AssertionError("brun3 was enumerated")

        monkeypatch.setattr(cli, "_build_table", no_table)
        grid = [] if command == "stats" else ["--q-grid", "2,3,4,5"]  # stats reads no Q grid
        assert run([command, "--algorithm", "brun3", "--denominator-bound", "10", "--targets", "1",
                    *grid, "--out", str(tmp_path / "o")]) == 1
        assert "the spectral grid supports gauss, brun2 and jp2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# every option flag, by the subcommand that reads it
FLAGS = {
    "enumerate": {"--algorithm", "--Q", "--denominator-bound", "--targets", "--out", "--budget"},
    "stats": {"--algorithm", "--Q", "--denominator-bound", "--targets", "--grid", "--jmax", "--out",
              "--budget"},
    "clt": {"--algorithm", "--Q", "--denominator-bound", "--targets", "--grid", "--jmax", "--q-grid",
            "--out", "--budget"},
    "ldp": {"--algorithm", "--Q", "--denominator-bound", "--targets", "--grid", "--jmax", "--q-grid",
            "--epsilon", "--out", "--budget"},
    "spectral": {"--algorithm", "--targets", "--grid", "--jmax", "--out"},
    "verify": {"--out", "--criteria"},
}

# valid on every subcommand; each malformed case below overrides some keys
BASE = {"algorithm": "gauss", "denominator_bound": 30, "targets": [1], "grid": 16, "jmax": 32,
        "q_grid": [5, 6, 7, 8], "epsilon": [0.1], "histogram_bins": 11, "use_empirical_lambda": True}
MALFORMED = {
    "jp2-int-target": ({"algorithm": "jp2", "targets": [1]}, "jp2 targets must be a:b pairs"),
    "string-grid": ({"grid": "64"}, "config key grid"),
    "string-Q": ({"Q": "10", "denominator_bound": None}, "config key Q"),
    "scalar-targets": ({"targets": 1}, "config key targets"),
    "string-bins": ({"histogram_bins": "9"}, "config key histogram_bins"),
    "gauss-pair-target": ({"targets": [[1, 2]]}, "pair targets are only valid for jp2"),
    "float-bound": ({"denominator_bound": 20.5}, "config key denominator_bound"),
    "scalar-epsilon": ({"epsilon": 0.1}, "config key epsilon"),
    "scalar-q-grid": ({"q_grid": 8}, "config key q_grid"),
}


class TestOptions:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        taken = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help", "--config"}
            for name, p in sub.choices.items()
        }
        assert taken == FLAGS
        assert sum(map(len, taken.values())) == 40

    @pytest.mark.parametrize("args", [
        ["verify", "--algorithm", "jp2", "--grid", "3", "--Q", "5"],
        ["spectral", "--Q", "3", "--budget", "1", "--epsilon", "9"],
        ["stats", "--algorithm", "gauss", "--denominator-bound", "30", "--q-grid", "5,6"],
    ])
    def test_flag_a_subcommand_ignores_is_a_usage_error(self, tmp_path, capsys, args):
        assert run([*args, "--out", str(tmp_path / "o")]) == 1
        assert "error: unrecognized arguments: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, message", [
        (["enumerate", "--Q", "inf"], "Q must be positive and finite"),
        (["ldp", "--denominator-bound", "30", "--q-grid", "5,6,7,8", "--epsilon", ","],
         "epsilon must be one or more positive numbers"),
        (["enumerate", "--denominator-bound", "5", "--targets", "1,1"], "targets must be distinct"),
    ], ids=["infinite-Q", "no-epsilon", "repeated-target"])
    def test_out_of_range_value_is_a_validation_error(self, tmp_path, capsys, args, message):
        assert run([*args, "--out", str(tmp_path / "o")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_table_fields_and_readme_name_the_same_keys(self):
        keys = set(OPTIONS)
        assert keys == {f.name for f in fields(ExperimentConfig)}
        readme = README.read_text()
        rows = re.findall(r"^\| `(\w+)` \| (.+?) \|((?: [✓ ] \|)+)$", readme, flags=re.M)
        assert {key for key, _, _ in rows} == keys
        order = ["enumerate", "stats", "clt", "ldp", "spectral", "verify"]
        for key, flag, marks in rows:
            readers = [c for c, mark in zip(order, marks.split("|")) if mark.strip() == "✓"]
            assert tuple(readers) == OPTIONS[key].commands, key
            dashed = "--" + key.replace("_", "-")
            assert flag == ("config only" if key in cli._CONFIG_ONLY else f"`{dashed}`"), key

    @pytest.mark.parametrize("command", ["stats", "ldp", "enumerate"])
    @pytest.mark.parametrize("override, message", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_config_is_a_validation_error(self, tmp_path, capsys, command, override, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**BASE, **override}))
        assert run([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_one_config_serves_every_subcommand(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(BASE))
        for command in ["enumerate", "stats", "clt", "ldp", "spectral", "verify"]:
            extra = ["--criteria", "A10"] if command == "verify" else []
            out = tmp_path / command
            assert run([command, *extra, "--config", str(cfgfile), "--out", str(out)]) == 0, command
        # stats reads neither epsilon nor the Q grid, but echoes them
        config = json.loads(read(tmp_path / "stats" / "summary.json"))["config"]
        assert config == {**BASE, "Q": None}

    def test_written_keys_match_the_schemas(self, tmp_path):
        runs = [
            ["enumerate", "--algorithm", "jp2", "--denominator-bound", "6", "--targets", "1:2"],
            ["stats", "--algorithm", "gauss", "--denominator-bound", "40", "--targets", "1", "--grid", "16"],
            ["clt", "--algorithm", "gauss", "--denominator-bound", "40", "--targets", "1", "--grid", "16",
             "--q-grid", "6,7"],
            ["ldp", "--algorithm", "gauss", "--denominator-bound", "40", "--targets", "1", "--grid", "16",
             "--q-grid", "5,6,7,8"],
            ["spectral", "--algorithm", "gauss", "--targets", "1", "--grid", "16", "--jmax", "32"],
            ["spectral", "--algorithm", "jp2", "--targets", "1:2", "--grid", "4", "--jmax", "4"],
            ["verify", "--criteria", "A10"],
        ]
        written = {}
        for k, args in enumerate(runs):
            out = tmp_path / str(k)
            assert run([*args, "--out", str(out)]) == 0, args
            assert (out / "schema.json").exists()
            for path in out.iterdir():
                if path.name == "schema.json":
                    continue
                schema = SCHEMAS[path.name]
                if path.suffix == ".json":
                    keys = set(json.loads(read(path)))
                    assert keys <= set(schema), path.name
                else:
                    comment, header = read(path).decode().split("\n")[:2]
                    assert comment == schema["comment_line"]
                    keys = {re.sub(r"^N_.+$", "N_<label>", re.sub(r"^num\d+$", "num_k", c))
                            for c in header.split(",")}
                    assert keys <= set(schema["columns"]), path.name
                written.setdefault(path.name, set()).update(keys)
        assert set(written) == set(SCHEMAS)
        for name, keys in written.items():
            assert keys == set(SCHEMAS[name].get("columns", SCHEMAS[name])), name


class TestCltLdp:
    def test_clt_needs_grid(self, tmp_path):
        assert run(["clt", "--algorithm", "gauss", "--denominator-bound", "60",
                    "--targets", "1", "--out", str(tmp_path / "o")]) == 1

    def test_ldp_run(self, tmp_path):
        out = tmp_path / "o"
        code = run(["ldp", "--algorithm", "gauss", "--denominator-bound", "200",
                    "--targets", "1", "--grid", "64", "--jmax", "256",
                    "--q-grid", "7,8,9,10", "--epsilon", "0.1,0.2", "--out", str(out)])
        assert code == 0
        data = json.loads(read(out / "summary.json"))
        ldp = data["ldp"]["1"]
        assert set(ldp) == {"0.10000000000000001", "0.20000000000000001"}
        assert len(ldp["0.10000000000000001"]["proportion"]) == 4

    @pytest.mark.parametrize("command, grid", [("clt", "1,6"), ("ldp", "1,4,5,6")])
    def test_empty_sub_ensemble_is_a_validation_error(self, tmp_path, capsys, command, grid):
        # Q = 1 lies below the smallest Gauss weight 2 log 2
        assert run([command, "--algorithm", "gauss", "--denominator-bound", "50",
                    "--targets", "1", "--grid", "64", "--jmax", "256",
                    "--q-grid", grid, "--out", str(tmp_path / "o")]) == 1
        assert "error: empty ensemble" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # the table is built before the directory

    def test_clt_run_ks_by_q(self, tmp_path):
        out = tmp_path / "o"
        code = run(["clt", "--algorithm", "gauss", "--denominator-bound", "200",
                    "--targets", "1", "--grid", "64", "--jmax", "256",
                    "--q-grid", "8,10", "--out", str(out)])
        assert code == 0
        data = json.loads(read(out / "summary.json"))
        assert len(data["ks_by_Q"]) == 2


class TestSpectral:
    def test_constants_payload(self, tmp_path):
        out = tmp_path / "o"
        assert run(["spectral", "--algorithm", "gauss", "--targets", "1",
                    "--grid", "128", "--jmax", "512", "--out", str(out)]) == 0
        data = json.loads(read(out / "constants.json"))
        assert data["entropy"] == pytest.approx(math.pi**2 / (6 * math.log(2)), abs=1e-2)
        assert data["witnesses"][0] == pytest.approx(-0.9624236501, abs=1e-6)
        assert data["witnesses"][1] == pytest.approx(-1.7627471740, abs=1e-6)
        assert abs(data["eigenvalue_at_1"] - 1) < 1e-4
        assert data["eigenvalue_iterations"] > 1
        assert 0 <= data["eigenvalue_residual"] < 1e-10
        assert (out / "density.csv").exists()

    # SHA-256 of constants.json, the witnesses of gauss and brun2 included
    @pytest.mark.parametrize("algorithm, targets, grid, jmax, pin", [
        ("gauss", "1,2", "128", "512", "221ffaa733a5c165b9003d1fdcc033c91e4c12fd22b671a6ac58124ad0e89712"),
        ("brun2", "1,2", "8", "16", "3a869cf2dfa1efae129a77847c2c1aeafcca45cf03ffcd29c2619a1592be6ce6"),
        ("jp2", "1:2,0:1", "8", "5", "f208b484b7cd5acf8b39124e81990761fc9af8d0de3f7d217ef4e37e897e64a8"),
    ], ids=["gauss", "brun2", "jp2"])
    def test_constants_bytes_pinned(self, tmp_path, algorithm, targets, grid, jmax, pin):
        out = tmp_path / "o"
        assert run(["spectral", "--algorithm", algorithm, "--targets", targets,
                    "--grid", grid, "--jmax", jmax, "--out", str(out)]) == 0
        assert hashlib.sha256(read(out / "constants.json")).hexdigest() == pin

    def test_grid_below_two_is_a_validation_error(self, tmp_path, capsys):
        assert run(["spectral", "--algorithm", "gauss", "--targets", "1", "--grid", "1",
                    "--out", str(tmp_path / "o")]) == 1
        assert "error: grid must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm, targets, grid, jmax", [
        ("gauss", "1,2", "128", "512"),
        ("brun2", "1,2", "8", "16"),
        ("jp2", "1:2,0:1", "8", "5"),
    ], ids=["gauss", "brun2", "jp2"])
    def test_one_solve_per_operator(self, tmp_path, monkeypatch, algorithm, targets, grid, jmax):
        from cfstats import spectral

        calls = {"_assemble": 0, "_power_iteration": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(spectral, name, counted(name, getattr(spectral, name)))
        assert run(["spectral", "--algorithm", algorithm, "--targets", targets,
                    "--grid", grid, "--jmax", jmax, "--out", str(tmp_path / "o")]) == 0
        # one build and one solve give the constants and the density
        assert calls == {"_assemble": 1, "_power_iteration": 1}

    def test_density_is_the_eigenfunction_behind_the_constants(self, tmp_path, monkeypatch):
        from cfstats import spectral

        derivs = []
        real = spectral.eigenvalue_derivatives

        def recorded(*args, **kwargs):
            derivs.append(real(*args, **kwargs))
            return derivs[-1]

        monkeypatch.setattr(spectral, "eigenvalue_derivatives", recorded)
        out = tmp_path / "o"
        assert run(["spectral", "--algorithm", "gauss", "--targets", "1",
                    "--grid", "600", "--jmax", "2048", "--out", str(out)]) == 0
        rows = read(out / "density.csv").decode().strip().split("\n")[2:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        (deriv,) = derivs
        dens = spectral.invariant_density(deriv.solve)
        assert values.shape == (600, 2)
        assert np.array_equal(values[:, 0], dens.nodes[0])
        assert np.array_equal(values[:, 1], dens.values)
        # the density is a new function: the solve's eigenfunction keeps sup norm 1
        assert deriv.solve.eigenfunction.values.max() == 1.0

    def test_target_beyond_jmax_has_zero_frequency(self, tmp_path):
        # the digit 200 lies outside a branch set capped at 16, so it is absent
        out = tmp_path / "o"
        assert run(["spectral", "--algorithm", "brun2", "--targets", "1,200",
                    "--grid", "8", "--jmax", "16", "--out", str(out)]) == 0
        data = json.loads(read(out / "constants.json"))
        assert data["lambda"][0] > 0
        assert data["lambda"][1] == 0
        assert data["eigenvalue_iterations"] > 1
        assert 0 <= data["eigenvalue_residual"] < 1e-10

    def test_brun3_rejected(self, tmp_path):
        assert run(["spectral", "--algorithm", "brun3", "--targets", "1",
                    "--out", str(tmp_path / "o")]) == 1


class TestVerify:
    def test_single_cheap_criterion(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["verify", "--criteria", "A10", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "A10 PASS" in printed
        report = json.loads(read(out / "verify_report.json"))
        assert report["criteria"][0]["name"] == "A10"
        values = report["criteria"][0]["values"]  # the measured numbers, not only pass/fail
        assert abs(values["tau"] ** 3 + values["tau"] - 1.0) < 1e-12
        assert abs(values["rho"] ** 3 + 2.0 * values["rho"] - 1.0) < 1e-12

    def test_unknown_criterion(self, tmp_path):
        assert run(["verify", "--criteria", "A99", "--out", str(tmp_path / "o")]) == 1

    def test_failing_criterion_gives_exit_two(self, tmp_path, monkeypatch):
        from cfstats import acceptance

        monkeypatch.setitem(
            acceptance.CRITERIA,
            "A10",
            lambda ctx: acceptance.CriterionResult("A10", False, "stubbed failure"),
        )
        assert run(["verify", "--criteria", "A10", "--out", str(tmp_path / "o")]) == 2

    def test_crashing_criterion_reported_not_raised(self, tmp_path, monkeypatch, capsys):
        from cfstats import acceptance

        def boom(ctx):
            raise RuntimeError("spectral non-convergence")

        monkeypatch.setitem(acceptance.CRITERIA, "A10", boom)
        assert run(["verify", "--criteria", "A10", "--out", str(tmp_path / "o")]) == 2
        assert "non-convergence" in capsys.readouterr().out

    def test_report_values_may_be_numpy_bools(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(str(path), {"passed": np.float64(1) < 2})
        assert json.loads(read(path))["passed"] is True

    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        path = tmp_path / "summary.json"
        write_json(str(path), {"slope": np.float64("nan"), "log_proportion": [-math.inf, -1.5]})
        data = json.loads(read(path))
        assert data["slope"] is None
        assert data["log_proportion"] == [None, -1.5]

    def test_unserialisable_report_leaves_no_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            write_json(str(path), {"passed": object()})
        assert not path.exists()
