"""E19, E20: the pre-table test ids → the criteria that replaced them."""


class TestE19UnifiedServer:
    def test_media_guarantee_never_broken(self, holds):
        holds("e19", "0 media misses at every load")

    def test_text_throughput_decreases_with_media_load(self, holds):
        holds("e19", "text throughput falls as media load grows")

    def test_text_still_served_under_load(self, holds):
        holds("e19", "text is still served under 2 media streams")


class TestE20HeterogeneousK:
    def test_solver_dominates_uniform_model(self, holds):
        holds("e20", "per-request k admits everything the uniform model "
                     "admits")

    def test_solver_rescues_mixed_workloads(self, holds):
        holds("e20", "and rescues '2 video + 4 audio' and '1 video + 10 "
                     "audio'")

    def test_every_admission_verified_against_eq11(self, holds):
        holds("e20", "every per-request admission verifies against Eq. (11)")
