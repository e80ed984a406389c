"""End-to-end self-healing: mid-run node crashes on the DES cluster.

The headline contract: a coupled run that loses a node mid-integration
detects the death by missed heartbeats, remaps the dead node's ranks,
rolls back to the last coordinated checkpoint and finishes **bit-exact**
with the fault-free run.  Failures that cannot be repaired (spare pool
exhausted, no committed checkpoint) surface as structured errors, never
as hangs.
"""

import shutil

import pytest

from repro.faults import run_crash_recovery_demo
from repro.gcm.atmosphere import atmosphere_model
from repro.hardware.cluster import HyadesCluster, HyadesConfig
from repro.recover import (
    NodeFailure,
    RecoveryConfig,
    RecoveryManager,
    UnrecoverableError,
)


class TestSelfHealing:
    def test_crash_recovers_bit_exact_with_measured_overhead(self):
        res = run_crash_recovery_demo(windows=3)
        assert res.error is None
        assert res.bit_exact
        # Detection latency within the detector's analytic bound
        # (timeout + period, plus the deterministic stagger).
        hb = res.report["heartbeat"]
        assert res.detection_latency is not None
        assert 0 < res.detection_latency <= hb["timeout"] + 2 * hb["period"]
        # The dead node's rank moved to the hot spare.
        assert res.remaps and res.remaps[0][1] == res.crash_node
        (_, old, new) = res.remaps[0]
        assert new != old
        assert res.restored_window is not None
        # Rollback and checkpointing cost real virtual time.
        assert res.rollback_cost > 0
        assert res.checkpoint_tax > 0
        assert res.total_overhead > 0

    def test_redistribution_doubles_ranks_on_survivor(self):
        """With no spares, the dead node's rank doubles up on the
        least-loaded survivor — still bit-exact."""
        res = run_crash_recovery_demo(n_spares=0, allow_redistribute=True)
        assert res.error is None
        assert res.bit_exact
        (rank, old, new) = res.remaps[0]
        assert old == res.crash_node and new != old
        # Survivor nodes are 0..3 minus the corpse.
        assert new in {0, 2, 3}


class TestStructuredFailure:
    def test_double_crash_exhausts_spares_cleanly(self):
        """Killing a rank node and then its replacement must end in
        UnrecoverableError, not a hang."""
        res = run_crash_recovery_demo(
            crash_node=1, extra_crashes=((7, None),), n_spares=1
        )
        assert res.error_type == "UnrecoverableError"
        assert "no spare" in res.error

    def test_second_spare_survives_double_crash(self):
        res = run_crash_recovery_demo(
            crash_node=1, extra_crashes=((7, None),), n_spares=2
        )
        assert res.error is None
        assert res.bit_exact

    def test_without_recovery_reliable_layer_raises_delivery_error(self):
        res = run_crash_recovery_demo(recover=False)
        assert res.error_type == "DeliveryError"
        assert "gave up" in res.error

    def test_without_recovery_raw_mode_names_the_crashed_node(self):
        """The watchdog diagnostic must say 'crash', not 'protocol bug'."""
        res = run_crash_recovery_demo(recover=False, reliable=False)
        assert res.error_type == "DeadlockError"
        assert "crashed" in res.error
        assert "enable crash recovery" in res.error

    def test_rolled_back_shard_is_unrecoverable_like_other_shard_damage(self, tmp_path):
        """A committed checkpoint whose shard was swapped for an older
        one must not be restored from: recovery ends structured."""
        cluster = HyadesCluster(HyadesConfig(n_nodes=4, n_spares=1))
        mgr = RecoveryManager(
            cluster, 2, RecoveryConfig(checkpoint_dir=str(tmp_path))
        )
        models = {"atm": atmosphere_model(nx=8, ny=4, nz=2, px=2, py=1, dt=600.0)}
        mgr.checkpoint(models, 0)
        models["atm"].run(2)
        mgr.checkpoint(models, 2)
        shutil.copy(
            tmp_path / "ckpt-w000000" / "atm_rank001.npz",
            tmp_path / "ckpt-w000002" / "atm_rank001.npz",
        )
        failure = NodeFailure(node=1, ranks=[1], declared_at=cluster.engine.now)
        with pytest.raises(UnrecoverableError, match="not the one its manifest names"):
            mgr.recover(models, failure)
