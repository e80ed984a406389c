"""Phi-accrual suspicion: slow is suspected, only dead is declared."""

import pytest

from repro.recover.membership import (
    K_DEAD,
    MIN_STD_FRACTION,
    PEER_ALIVE,
    PEER_DEAD,
    PEER_SUSPECT,
    PHI_DEAD,
    PHI_MIN_SAMPLES,
    PHI_SUSPECT,
    PHI_WINDOW,
    PhiAccrualDetector,
)

PERIOD = 50e-6
TIMEOUT = 250e-6


def warm_detector(n=40, period=PERIOD):
    det = PhiAccrualDetector()
    t = 0.0
    for _ in range(n):
        t += period
        det.heard(1, t)
    return det, t


class TestConfig:
    """The tuning is constants; these are the conditions they must meet."""

    def test_thresholds_must_be_ordered(self):
        assert 0.0 < PHI_SUSPECT < PHI_DEAD

    def test_window_and_samples_floors(self):
        assert PHI_WINDOW >= 2
        assert 2 <= PHI_MIN_SAMPLES <= PHI_WINDOW
        assert K_DEAD >= 1.0
        assert MIN_STD_FRACTION > 0.0


class TestWarmup:
    def test_no_history_means_alive(self):
        det = PhiAccrualDetector()
        assert det.phi(1, 1.0) == 0.0
        assert det.state(1, 1.0, TIMEOUT) == PEER_ALIVE

    def test_fixed_timeout_governs_before_min_samples(self):
        det = PhiAccrualDetector()
        det.heard(1, 0.0)
        det.heard(1, PERIOD)  # one interval < min_samples
        assert det.state(1, PERIOD * 2, TIMEOUT) == PEER_ALIVE
        assert det.state(1, PERIOD + TIMEOUT * 1.1, TIMEOUT) == PEER_DEAD


class TestAdaptiveClassification:
    def test_on_time_beacons_stay_alive(self):
        det, t = warm_detector()
        assert det.state(1, t + PERIOD, TIMEOUT) == PEER_ALIVE

    def test_moderate_silence_is_suspicion_not_death(self):
        det, t = warm_detector()
        # 4 periods of silence: phi is enormous (learned std is tiny)
        # but the k_dead * mean silence gate has not been cleared.
        silence = 4 * PERIOD
        assert det.phi(1, t + silence) >= PHI_DEAD
        assert det.state(1, t + silence, TIMEOUT) == PEER_SUSPECT

    def test_prolonged_silence_is_declared(self):
        det, t = warm_detector()
        silence = (K_DEAD + 1.5) * PERIOD
        assert det.state(1, t + silence, TIMEOUT) == PEER_DEAD

    def test_slow_but_steady_peer_adapts_back_to_alive(self):
        # A peer that settles at 3x the period keeps tripping a fixed
        # 250us timeout's half-way mark but must re-learn as normal.
        det, t = warm_detector()
        for _ in range(40):
            t += 3 * PERIOD
            det.heard(1, t)
        assert det.mean_interval(1) == pytest.approx(3 * PERIOD, rel=0.3)
        assert det.state(1, t + 3 * PERIOD, TIMEOUT) == PEER_ALIVE

    def test_learned_window_is_bounded(self):
        det, _ = warm_detector(n=500)
        assert det.samples(1) == PHI_WINDOW


class TestDeterminism:
    def test_identical_streams_identical_verdicts(self):
        a, ta = warm_detector()
        b, tb = warm_detector()
        assert ta == tb
        for k in range(1, 12):
            now = ta + k * PERIOD / 2
            assert a.phi(1, now) == b.phi(1, now)
            assert a.state(1, now, TIMEOUT) == b.state(1, now, TIMEOUT)
