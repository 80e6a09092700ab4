"""The light paths stay light: importing jetflow, validating a config and writing a demo
config load no numpy, scipy or mpmath; every public name still resolves on first use."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import jetflow

_SRC = str(Path(jetflow.__file__).resolve().parents[1])


def _fresh(code: str, tmp_path) -> str:
    """Run code in a fresh interpreter that imports jetflow from this checkout; returns its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    env.pop("JETFLOW_OUTPUT_DIR", None)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_cli_demo_validate_and_a_rejected_config_load_no_numerics(tmp_path):
    code = """
        import sys
        import jetflow, jetflow.cli
        from jetflow.experiments import KINDS, validate_config

        for kind in KINDS:
            assert jetflow.cli.main(["demo", kind, "--out", "cfg"]) == 0
            assert jetflow.cli.main(["validate", f"cfg/{kind}.json"]) == 0
        assert validate_config({"kind": "hankel-rates", "a": 0.0, "r": -1.0, "n_max": 3}) == [
            ("r", "required positive number")]
        assert jetflow.parse_map("z1", 1, 1).d == 1 and issubclass(jetflow.ConfigError, Exception)
        print(sorted(m for m in ("numpy", "scipy", "mpmath") if m in sys.modules))
    """
    assert _fresh(code, tmp_path) == "[]"


def test_every_public_name_resolves_to_its_defining_module():
    lazy = jetflow._LAZY
    assert len(jetflow.__all__) == len(set(jetflow.__all__)) == 75
    for name in jetflow.__all__:
        module = importlib.import_module(f"jetflow.{lazy.get(name, 'errors')}")
        assert getattr(jetflow, name) is getattr(module, name), name
    assert set(jetflow.__all__) <= set(dir(jetflow))
    assert jetflow.parse_map is jetflow.maps.parse_map is jetflow.grammar.parse_map


def test_a_patch_before_the_first_run_is_seen_by_the_run(tmp_path):
    # the order of a tracer that wraps experiments.<name> before any runner has loaded it
    code = """
        import sys
        from jetflow import experiments

        calls = []

        def counted(measure, N, scheme, seed=None):
            from jetflow.sampling import draw_samples

            calls.append(N)
            return draw_samples(measure, N, scheme, seed)

        experiments.draw_samples = counted
        assert "numpy" not in sys.modules
        cfg = experiments.demo_config("lsq-equivalence")
        experiments.run_experiment(cfg)
        assert experiments.draw_samples is counted
        print(calls)
    """
    assert _fresh(code, tmp_path) == "[2000]"


def test_threads_that_load_the_numerics_at_once_each_see_every_name(tmp_path):
    code = """
        import sys, threading
        from jetflow import experiments

        sys.setswitchinterval(1e-6)
        seen = []

        def load():
            experiments._numerics()
            seen.append(all(name in vars(experiments) for name in experiments._NUMERICS))

        threads = [threading.Thread(target=load) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        from jetflow.sampling import draw_samples
        assert experiments.draw_samples is draw_samples
        print(seen)
    """
    assert _fresh(code, tmp_path) == str([True] * 8)
