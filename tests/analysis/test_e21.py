"""E21: the pre-table test ids → the criteria that replaced them."""


class TestE21RecordAndPlay:
    def test_sane_mixes_glitch_free(self, holds):
        holds("e21", "1R+1P, 1R+2P and 2R+1P run with 0 misses")

    def test_overload_breaks_down(self, holds):
        holds("e21", "the overloaded mix misses")
