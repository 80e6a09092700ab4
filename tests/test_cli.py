import json
import math
import os

import pytest

from jetflow.cli import main
from jetflow.experiments import KINDS, demo_config, validate_config


@pytest.fixture(autouse=True)
def isolated_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("JETFLOW_OUTPUT_DIR", raising=False)
    return tmp_path


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def fast_config(kind):
    cfg = demo_config(kind)
    if kind == "pushforward-convergence":
        cfg["orders"]["n_sweep"] = [3, 4]
        cfg["sampling"]["N"] = 300
    elif kind == "map-reconstruction":
        cfg["orders"] = {"m": 4, "n": 6}
        cfg["sampling"]["N"] = 500
        cfg["eval"]["points_per_axis"] = 11
    elif kind == "lsq-equivalence":
        cfg["sampling"]["N"] = 200
    elif kind == "hankel-rates":
        cfg["n_max"] = 6
        cfg["precision_bits"] = 128
    elif kind == "vectorfield-recovery":
        cfg["orders"] = {"m": 3, "n": 5}
        cfg["sampling"]["N"] = 400
        cfg["eval"]["points_per_axis"] = 11
    return cfg


def test_demo_validate_run_roundtrip(tmp_path, capsys):
    for kind in KINDS:
        assert main(["demo", kind, "--out", str(tmp_path)]) == 0
        demo_path = tmp_path / f"{kind}.json"
        assert demo_path.exists()
        assert main(["validate", str(demo_path)]) == 0

        cfg = fast_config(kind)
        cfg["output_dir"] = str(tmp_path / kind.replace("-", "_"))
        run_path = write_config(tmp_path / f"fast-{kind}.json", cfg)
        capsys.readouterr()
        assert main(["run", run_path]) == 0, kind
        out = capsys.readouterr().out
        csv_name = kind.replace("-", "_") + ".csv"
        csv_path = tmp_path / kind.replace("-", "_") / csv_name
        assert csv_path.exists()
        assert "wrote" in out
        manifest = json.loads((csv_path.parent / "run_manifest.json").read_text())
        assert manifest["config"]["kind"] == kind
        assert "jetflow" in manifest["versions"]
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[-1] == "status"


def test_missing_map_field_exits_2(tmp_path, capsys):
    cfg = demo_config("map-reconstruction")
    del cfg["map"]
    path = write_config(tmp_path / "bad.json", cfg)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "config-invalid"
    assert any(issue["field"] == "map" for issue in record["issues"])


def test_validate_reports_all_issues(tmp_path, capsys):
    cfg = demo_config("pushforward-convergence")
    cfg["d"] = 0
    cfg["sampling"]["scheme"] = "sobol"
    path = write_config(tmp_path / "bad2.json", cfg)
    assert main(["validate", path]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    fields = {issue["field"] for issue in record["issues"]}
    assert "d" in fields
    assert "sampling.scheme" in fields



@pytest.mark.parametrize("kind", ["map-reconstruction", "lsq-equivalence", "vectorfield-recovery"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_sweeps_outside_convergence_exit_2(tmp_path, capsys, kind, command):
    cfg = demo_config(kind)
    cfg["orders"]["n_sweep"] = [cfg["orders"].pop("n")]
    cfg["sampling"]["N_sweep"] = [cfg["sampling"].pop("N")]
    cfg["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path / "sweep.json", cfg)
    assert main([command, path]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config-invalid"
    fields = {issue["field"] for issue in record["issues"]}
    assert {"orders.n_sweep", "sampling.N_sweep"} <= fields
    assert not (tmp_path / "out").exists()

def test_unreadable_config_exits_2(capsys):
    assert main(["run", "no-such-file.json"]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config-unreadable"


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config-not-json"


def test_run_into_an_output_dir_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "plain").write_text("")
    cfg = fast_config("hankel-rates")
    cfg["output_dir"] = str(tmp_path / "plain" / "out")
    code = main(["run", write_config(tmp_path / "cfg.json", cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "output-unwritable"
    assert record["path"] == cfg["output_dir"] and record["reason"]


@pytest.mark.parametrize("out", ["plain", "plain/sub"])
def test_demo_into_a_file_exits_2(tmp_path, capsys, out):
    (tmp_path / "plain").write_text("")
    code = main(["demo", "hankel-rates", "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    record = json.loads(captured.err.strip())
    assert record["error"] == "output-unwritable"
    assert record["path"] == str(tmp_path / out) and record["reason"]
    assert (tmp_path / "plain").read_text() == ""


def test_pipeline_failure_exits_1(tmp_path, capsys, recwarn):
    cfg = fast_config("map-reconstruction")
    cfg["sampling"]["N"] = 5  # fewer samples than degree-6 features
    cfg["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path / "fail.json", cfg)
    code = main(["run", path])
    err = capsys.readouterr().err
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "pipeline-failure"
    assert record["type"] == "EstimatorIllPosedError"


def test_pole_at_the_base_point_exits_1_with_a_record(tmp_path, capsys):
    # the oracle's jet of 1/z1 at 0 divides by a jet that vanishes there
    cfg = fast_config("pushforward-convergence")
    cfg["map"] = "1/z1"
    cfg["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path / "pole.json", cfg)
    assert main(["run", path]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "pipeline-failure", "type": "PoleError",
                      "reason": "division by a jet that vanishes at the expansion point"}


def test_field_with_a_pole_at_the_base_point_exits_2(tmp_path, capsys):
    cfg = fast_config("vectorfield-recovery")
    cfg["map"] = "1/z1 - 1/z1"
    cfg["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path / "pole.json", cfg)
    assert main(["run", path]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config-invalid"
    assert record["issues"] == [{"field": "base_point",
                                 "reason": "base point is not an equilibrium: V has a pole there"}]


def test_non_equilibrium_base_point_exits_2(tmp_path, capsys):
    cfg = fast_config("vectorfield-recovery")
    cfg["base_point"] = [0.5]  # -z + 0.2 z^2 does not vanish there
    cfg["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path / "fail.json", cfg)
    code = main(["run", path])
    err = capsys.readouterr().err
    assert code == 2
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "config-invalid"
    assert record["issues"][0]["field"] == "base_point"


def test_rerun_is_byte_identical(tmp_path, capsys):
    cfg = fast_config("pushforward-convergence")
    for tag in ("a", "b"):
        cfg["output_dir"] = str(tmp_path / tag)
        path = write_config(tmp_path / f"{tag}.json", cfg)
        assert main(["run", path]) == 0
    csv_a = (tmp_path / "a" / "pushforward_convergence.csv").read_bytes()
    csv_b = (tmp_path / "b" / "pushforward_convergence.csv").read_bytes()
    assert csv_a == csv_b


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    target = tmp_path / "env-target"
    monkeypatch.setenv("JETFLOW_OUTPUT_DIR", str(target))
    cfg = fast_config("hankel-rates")
    cfg["output_dir"] = str(tmp_path / "ignored")
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run", path]) == 0
    assert (target / "hankel_rates.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_validate_config_direct():
    for kind in KINDS:
        assert validate_config(demo_config(kind)) == []
    assert validate_config({"kind": "nope"}) == [
        ("kind", f"required one of {KINDS}")
    ]
    issues = validate_config({"kind": "hankel-rates", "a": 0.0, "r": -1.0, "n_max": 3})
    assert ("r", "required positive number") in issues


def test_validate_config_without_d_reports_lists_of_any_length():
    cfg = demo_config("map-reconstruction")
    cfg["d"] = 0
    cfg["sampling"].update(scheme="sobol", support_radii=[], support_center="origin")
    cfg["base_point"] = [0.0, "x"]
    cfg["domain"]["radii"] = [-1.0]
    cfg["eval"]["radii"] = [0.3, 0.0]
    cfg["orders"]["n"] = 2
    assert validate_config(cfg) == [
        ("d", "required integer >= 1"),
        ("sampling.scheme", "required one of ('iid', 'grid', 'halton')"),
        ("sampling.support_radii", "required list of positive numbers"),
        ("sampling.support_center", "must be a list of numbers"),
        ("base_point", "required list of numbers"),
        ("domain.radii", "required list of positive numbers"),
        ("orders.n", "required integer >= m (6)"),
        ("eval.radii", "required list of positive numbers"),
    ]


_DROP = object()  # a mutation value that deletes the key
_PF, _MR, _VF, _HR = ("pushforward-convergence", "map-reconstruction",
                      "vectorfield-recovery", "hankel-rates")


# json reads a bare NaN as a float, which validation must reject before a run turns it
# into a traceback (hankel-rates) or a CSV of nan rows marked ok (map-reconstruction)
_NAN_CASES = [
    (_HR, ("r",), math.nan, ("r", "required positive number")),
    (_MR, ("eval", "radii"), [math.nan], ("eval.radii", "required list of 1 positive numbers")),
    (_MR, ("base_point",), [math.nan], ("base_point", "required list of 1 numbers")),
]


# (kind, key path, new value or _DROP, the one issue validate_config must report or None)
@pytest.mark.parametrize("kind, path, value, issue", [
    (_PF, ("output_dir",), 3, ("output_dir", "must be a string")),
    (_HR, ("a",), "zero", ("a", "required number")),
    (_HR, ("r",), 0, ("r", "required positive number")),
    (_HR, ("n_max",), -1, ("n_max", "required integer >= 0")),
    (_HR, ("precision_bits",), 8, ("precision_bits", "must be an integer >= 16")),
    (_PF, ("d",), 0, ("d", "required integer >= 1")),
    (_PF, ("r",), 0, ("r", "required integer >= 1")),
    (_PF, ("map",), "  ", ("map", "required nonempty expression string")),
    (_PF, ("base_point",), [0.0, 0.0], ("base_point", "required list of 1 numbers")),
    (_MR, ("orders",), _DROP, ("orders", "required object with m and n (or n_sweep)")),
    (_MR, ("orders", "m"), 0, ("orders.m", "required integer >= 1")),
    (_PF, ("orders", "n_sweep"), _DROP, ("orders", "exactly one of n or n_sweep is required")),
    (_MR, ("orders", "n"), 5, ("orders.n", "required integer >= m (6)")),
    (_PF, ("orders", "n_sweep"), [], ("orders.n_sweep", "required nonempty list of integers >= m (3)")),
    (_MR, ("orders",), {"m": 6, "n_sweep": [8]},
     ("orders.n_sweep", "only pushforward-convergence runs sweeps")),
    (_MR, ("sampling",), "halton", ("sampling", "required object")),
    (_MR, ("sampling", "scheme"), "sobol",
     ("sampling.scheme", "required one of ('iid', 'grid', 'halton')")),
    (_MR, ("sampling", "N"), _DROP, ("sampling", "exactly one of N or N_sweep is required")),
    (_MR, ("sampling", "N"), 0, ("sampling.N", "required integer >= 1")),
    (_PF, ("sampling",), {"scheme": "halton", "N_sweep": [0], "support_radii": [0.5]},
     ("sampling.N_sweep", "required nonempty list of integers >= 1")),
    (_MR, ("sampling",), {"scheme": "halton", "N_sweep": [100], "support_radii": [0.5]},
     ("sampling.N_sweep", "only pushforward-convergence runs sweeps")),
    (_MR, ("sampling", "support_radii"), [-0.5],
     ("sampling.support_radii", "required list of 1 positive numbers")),
    (_MR, ("sampling", "support_center"), [0.0, 0.0],
     ("sampling.support_center", "must be a list of 1 numbers")),
    (_MR, ("sampling", "seed"), 1.5, ("sampling.seed", "must be an integer")),
    (_MR, ("domain",), [], ("domain", "required object")),
    (_MR, ("domain", "radii"), [0.0], ("domain.radii", "required list of 1 positive numbers")),
    (_MR, ("domain",), {"kind": "ball", "radius": -1.0}, ("domain.radius", "required positive number")),
    (_MR, ("domain",), {"kind": "ball", "radius": 1.0}, None),
    (_MR, ("domain", "kind"), "disk", ("domain.kind", "required 'box' or 'ball'")),
    (_MR, ("eval",), _DROP, ("eval", "required object with radii and points_per_axis")),
    (_MR, ("eval", "radii"), "0.3", ("eval.radii", "required list of 1 positive numbers")),
    (_MR, ("eval", "points_per_axis"), 0, ("eval.points_per_axis", "required integer >= 1")),
    (_VF, ("flow",), _DROP, ("flow", "required object with T and tol")),
    (_VF, ("flow", "T"), 0, ("flow.T", "required positive number")),
    (_VF, ("flow", "tol"), "small", ("flow.tol", "required positive number")),
    *_NAN_CASES,
    (_VF, ("flow", "T"), math.inf, ("flow.T", "required positive number")),
])
def test_validate_config_reports_each_mutation(kind, path, value, issue):
    assert validate_config(_mutated(kind, path, value)) == ([] if issue is None else [issue])


def _mutated(kind, path, value):
    cfg = demo_config(kind)
    *parents, key = path
    section = cfg
    for name in parents:
        section = section[name]
    if value is _DROP:
        del section[key]
    else:
        section[key] = value
    return cfg


@pytest.mark.parametrize("kind, path, value, issue", _NAN_CASES)
def test_nan_config_number_exits_2(tmp_path, capsys, kind, path, value, issue):
    cfg = _mutated(kind, path, value)
    cfg["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path / "nan.json", cfg)
    assert "NaN" in open(path).read()
    assert main(["run", path]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config-invalid"
    assert record["issues"] == [{"field": issue[0], "reason": issue[1]}]
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
