"""E13–E16: the pre-table test ids → the criteria that replaced them."""


class TestE13VariableRate:
    def test_vbr_always_gains(self, holds):
        holds("e13", "the averaged VBR bound beats CBR at every granularity")

    def test_gain_uniform_across_granularity(self, holds):
        holds("e13", "the gain is uniform across granularity (spread < 0.5)")


class TestE14ScanOrdering:
    def test_scan_never_slower(self, holds):
        holds("e14", "SCAN-ordered rounds are no longer than round-robin's "
                     "on average")

    def test_measured_capacity_beats_pessimistic(self, holds):
        holds("e14", "measured-β̂ capacity exceeds the pessimistic Eq. (17) "
                     "estimate")


class TestE15Reorganization:
    def test_fragmentation_blocks_placement(self, holds):
        holds("e15", "fragmentation blocks the placement")

    def test_reorganization_restores_it(self, holds):
        holds("e15", "reorganization restores it", "by moving blocks")


class TestE16VariableSpeed:
    def test_all_modes_continuous(self, holds):
        holds("e16", "0 misses in every mode")

    def test_skipping_reduces_fetches(self, holds):
        holds("e16", "2× with skipping fetches half the blocks of 2× without")

    def test_slow_motion_accumulates_and_switches(self, holds):
        holds("e16", "slow motion switches tasks, at least as often as "
                     "normal speed",
              "slow motion idles the disk longest")
