"""Ablations: the pre-table test ids → the criteria that replaced them."""


class TestGranularityAblation:
    def test_bound_monotone_in_eta(self, holds):
        holds("a1", "the l_ds bound grows with η")

    def test_capacity_never_decreases_with_eta(self, holds):
        holds("a1", "n_max never falls as η grows")


class TestCopyBudgetAblation:
    def test_window_monotone_in_budget(self, holds):
        holds("a2", "the placement window widens with the budget")

    def test_unbounded_budget_is_widest(self, holds):
        holds("a2", "an unbounded budget leaves the widest window")

    def test_window_loss_inversely_proportional_to_budget(self, holds):
        holds("a2", "doubling the budget halves the window given up "
                    "(l_seek_max / 2·C_b)")


class TestBlockSizeAblation:
    def test_throughput_monotone_in_block_size(self, holds):
        holds("a3", "throughput at the average gap grows with slot size")

    def test_waste_reported(self, holds):
        holds("a3", "bigger slots waste more on audio blocks")
