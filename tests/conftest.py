"""Shared fixtures: a suite of synthetic stage enumerations with varied
schedules, a roster of partial deciders, and contrasting jump guessers."""

import importlib.util
from bisect import bisect_right
from pathlib import Path

import pytest

from cedensity.core import CEStream, SetOracle
from cedensity.prioritysim import JumpApprox, PartialDecider


def make_stream_suite(n_max: int) -> dict:
    """Ten labeled enumerations covering constant, parity, residue,
    delayed, and bursty schedules, plus the empty stream."""
    stage_max = 4 * n_max

    def mk(oracle, delay=None, label=""):
        return CEStream.from_oracle(oracle, n_max=n_max, stage_max=stage_max,
                                    delay_fn=delay, label=label)

    return {
        "full-own": mk(SetOracle.naturals(), label="full-own"),
        "full-immediate": mk(SetOracle.naturals(), delay=lambda m: 0,
                             label="full-immediate"),
        "evens-own": mk(SetOracle.residue_union(2, [0]), label="evens-own"),
        "odds-delayed": mk(SetOracle.residue_union(2, [1]),
                           delay=lambda m: 2 * m, label="odds-delayed"),
        "mod3-own": mk(SetOracle.residue_union(3, [0, 1]), label="mod3-own"),
        "full-bursty": mk(SetOracle.naturals(),
                          delay=lambda m: ((m // 512) + 1) * 512,
                          label="full-bursty"),
        "evens-bursty": mk(SetOracle.residue_union(2, [0]),
                           delay=lambda m: ((m // 256) + 1) * 256,
                           label="evens-bursty"),
        "full-delayed": mk(SetOracle.naturals(), delay=lambda m: 2 * m + 3,
                           label="full-delayed"),
        "threequarters-own": mk(SetOracle.residue_union(4, [0, 1, 2]),
                                label="threequarters-own"),
        "empty": mk(SetOracle.empty(), label="empty"),
    }


def make_decider_roster() -> list:
    return [
        PartialDecider.constant(1, 0, label="one"),
        PartialDecider.constant(0, 3, label="zero-late"),
        PartialDecider.parity(1, label="parity"),
        PartialDecider.residue(3, [0], 2, label="mod3"),
        PartialDecider.never(),
    ]


def make_jump_fixtures() -> dict:
    return {
        "never": JumpApprox(lambda i, s: 0, lambda i, s: None, label="never"),
        "step": JumpApprox(lambda i, s: 1 if s >= 4 else 0,
                           lambda i, s: 12 if s >= 4 else None, label="step"),
        "blink": JumpApprox(lambda i, s: (s // 8) % 2,
                            lambda i, s: 20, label="blink"),
    }


def expand_g_changes(g_changes: dict, stage_max: int) -> dict:
    """Each pair's g at the stages 0..stage_max, one value per stage, from
    its change points: the parity of the change points at most s."""
    return {p: [bisect_right(points, s) % 2 for s in range(stage_max + 1)]
            for p, points in g_changes.items()}


def load_bench_checker():
    """``bench/checker.py``, the benchmark's own output checks, loaded by
    path: the benchmark directory is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "checker.py"
    spec = importlib.util.spec_from_file_location("bench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def small_suite():
    return make_stream_suite(2000)


@pytest.fixture(scope="session")
def big_suite():
    return make_stream_suite(10**5)


@pytest.fixture(scope="session")
def decider_roster():
    return make_decider_roster()


@pytest.fixture(scope="session")
def jump_fixtures():
    return make_jump_fixtures()
