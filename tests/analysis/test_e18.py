"""E18: the pre-table test ids → the criteria that replaced them."""


class TestE18AntiJitter:
    def test_strict_continuity_breaks_under_jitter(self, holds):
        holds("e18", "with no read-ahead, rotational jitter breaks strict "
                     "continuity")

    def test_read_ahead_restores_continuity(self, holds):
        holds("e18", "an 8-block read-ahead restores continuity")

    def test_misses_monotone_in_readahead(self, holds):
        holds("e18", "misses never rise with read-ahead")
