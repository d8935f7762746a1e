"""E17: the pre-table test ids → the criteria that replaced them."""


class TestE17Striping:
    def test_all_widths_continuous(self, holds):
        holds("e17", "every stripe width plays with 0 misses")

    def test_bound_grows_with_heads(self, holds):
        holds("e17", "the per-member bound grows with p, more than doubling "
                     "from 4 to 8 heads")
