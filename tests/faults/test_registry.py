"""Unit tests for the seeded fault-injection registry (repro.faults)."""

import os
import subprocess
import sys

import pytest

from repro.faults import (
    FAULT_SITES,
    FaultSpec,
    InjectedFault,
    active_specs,
    fire,
    inject,
    parse_faults,
    reset,
)
from repro.faults.registry import ENV_VAR, KILL_EXIT_CODE


@pytest.fixture(autouse=True)
def _clean_registry():
    reset()
    yield
    reset()


class TestParsing:
    def test_bare_site_defaults(self):
        (spec,) = parse_faults("persist.write")
        assert spec == FaultSpec(site="persist.write")
        assert spec.action == "raise"
        assert spec.after == 0
        assert spec.times == 1
        assert spec.p == 1.0

    def test_full_grammar(self):
        (spec,) = parse_faults(
            "serving.wal:kill:after=2:times=-1:p=0.5:seed=7"
        )
        assert spec.site == "serving.wal"
        assert spec.action == "kill"
        assert spec.after == 2
        assert spec.times == -1
        assert spec.p == 0.5
        assert spec.seed == 7

    def test_multiple_semicolon_separated(self):
        specs = parse_faults("persist.write; serving.flush:raise:after=1")
        assert [s.site for s in specs] == ["persist.write", "serving.flush"]

    def test_unknown_site_warns_but_parses(self):
        with pytest.warns(UserWarning, match="unknown fault site"):
            (spec,) = parse_faults("future.site:raise")
        assert spec.site == "future.site"

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            parse_faults("persist.write:explode")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            parse_faults("persist.write:raise:bogus=1")

    def test_roundtrip_via_token(self):
        (spec,) = parse_faults("persist.fsync:raise:after=1:times=3:seed=9")
        (reparsed,) = parse_faults(spec.to_token())
        assert reparsed == spec

    def test_all_documented_sites_parse(self):
        for site in FAULT_SITES:
            (spec,) = parse_faults(site)
            assert spec.site == site


class TestFiring:
    def test_unarmed_site_is_noop(self):
        fire("persist.write")  # nothing armed: must not raise

    def test_raise_action(self):
        with inject("persist.write"):
            with pytest.raises(InjectedFault, match="persist.write"):
                fire("persist.write")

    def test_detail_lands_in_message(self):
        with inject("persist.write"):
            with pytest.raises(InjectedFault, match="why-not"):
                fire("persist.write", "why-not")

    def test_after_skips_hits(self):
        with inject("persist.write:raise:after=2"):
            fire("persist.write")
            fire("persist.write")
            with pytest.raises(InjectedFault):
                fire("persist.write")

    def test_times_bounds_firing(self):
        with inject("persist.write:raise:times=2"):
            with pytest.raises(InjectedFault):
                fire("persist.write")
            with pytest.raises(InjectedFault):
                fire("persist.write")
            fire("persist.write")  # exhausted

    def test_times_unlimited(self):
        with inject("persist.write:raise:times=-1"):
            for _ in range(5):
                with pytest.raises(InjectedFault):
                    fire("persist.write")

    def test_seeded_probability_is_deterministic(self):
        def pattern():
            hits = []
            with inject("persist.write:raise:times=-1:p=0.5:seed=42"):
                for _ in range(32):
                    try:
                        fire("persist.write")
                        hits.append(0)
                    except InjectedFault:
                        hits.append(1)
            return hits

        first, second = pattern(), pattern()
        assert first == second
        assert 0 < sum(first) < 32  # actually probabilistic


class TestInjectContextManager:
    def test_arms_and_disarms(self):
        assert active_specs() == ()
        with inject("persist.write"):
            assert [s.site for s in active_specs()] == ["persist.write"]
        assert active_specs() == ()

    def test_exports_env_and_restores(self):
        previous = os.environ.get(ENV_VAR)
        with inject("persist.write:raise:after=1"):
            assert "persist.write" in os.environ[ENV_VAR]
        assert os.environ.get(ENV_VAR) == previous

    def test_accepts_spec_objects(self):
        with inject(FaultSpec(site="serving.flush", times=2)):
            (spec,) = active_specs()
            assert spec.times == 2

    def test_env_inheritance_across_subprocess(self):
        # A child process re-arms from $REPRO_FAULTS on its first
        # fire(): the mechanism subprocess chaos tests rely on.
        code = (
            "from repro.faults import fire, InjectedFault\n"
            "try:\n"
            "    fire('persist.write')\n"
            "except InjectedFault:\n"
            "    raise SystemExit(7)\n"
            "raise SystemExit(1)\n"
        )
        with inject("persist.write"):
            result = subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": _src_path()},
            )
        assert result.returncode == 7

    def test_kill_action_exits_with_sentinel_code(self):
        code = (
            "from repro.faults import fire\n"
            "fire('persist.write')\n"
            "raise SystemExit(1)\n"
        )
        with inject("persist.write:kill"):
            result = subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": _src_path()},
            )
        assert result.returncode == KILL_EXIT_CODE


def _src_path():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
