"""E13–E15: the pre-table test ids → the criteria that replaced them."""


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

