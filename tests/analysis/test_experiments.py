"""E1–E12: the pre-table test ids, each naming the criteria of
:data:`repro.analysis.EXPERIMENTS` that took over its asserts (the
predicates themselves are stated once, on the rows)."""


class TestE1Architectures:
    def test_bound_ordering(self, holds):
        holds("e1", "l_ds tolerance: sequential < pipelined ≤ concurrent")

    def test_analysis_is_safe(self, holds):
        holds("e1", "the analysis is safe: 0 misses at 95 % of every bound")

    def test_single_head_fails_at_widest_gap(self, holds):
        holds("e1", "single-head architectures miss at the widest gap")


class TestE2KvsN:
    def test_k_monotone_and_divergent(self, holds):
        holds("e2", "k (Eq. 18) grows with n, steepening toward capacity")

    def test_refusal_exactly_past_n_max(self, holds):
        holds("e2", "feasible for n = 1…n_max, refused exactly at n_max + 1")

    def test_transition_k_at_least_steady_k(self, holds):
        holds("e2", "k transition (Eq. 18) ≥ k steady (Eq. 16) at every "
                    "feasible n")


class TestE3Transition:
    def test_staged_walk_is_glitch_free(self, holds):
        holds("e3", "naive k jump: existing streams miss",
              "staged +1/round walk: 0 existing-stream misses")


class TestE4Allocation:
    def test_random_needs_buffering_constrained_does_not(self, holds):
        holds("e4", "constrained and contiguous placement need no read-ahead",
              "random placement needs read-ahead to play continuously",
              "random placement's widest gap exceeds constrained's")


class TestE5Buffering:
    def test_counts_and_h(self, holds):
        holds("e5", "read-ahead k / k / pk and buffers k / 2k / pk at every k",
              "task-switch read-ahead h ≥ 1 block",
              "2× slow motion accumulates blocks")


class TestE6MixedMedia:
    def test_heterogeneous_tolerates_more_scattering(self, holds):
        holds("e6", "heterogeneous blocks tolerate more scattering than "
                    "homogeneous")


class TestE7HDTV:
    def test_matches_paper_figures(self, holds):
        holds("e7", "array throughput within 5 % of the paper's 0.32 Gbit/s",
              "HDTV demand ≈ 7.8× what the array sustains (±10 %)")


class TestE8EditCopy:
    def test_copies_within_paper_bounds(self, holds):
        holds("e8", "sparse disk: 1 ≤ blocks copied ≤ the Eq. (19) bound",
              "dense disk: 1 ≤ blocks copied ≤ the Eq. (20) bound",
              "dense bound ≥ 2 × sparse bound − 1")


class TestE9RopeOps:
    def test_editing_copies_no_media(self, holds):
        holds("e9", "every rope operation copies 0 media blocks")


class TestE10Silence:
    def test_saving_grows_with_silence(self, holds):
        holds("e10", "space saved grows with the silence ratio",
              "no silence saves < 5 %; 0.8 silence saves > 40 %",
              "playback duration preserved at every ratio")


class TestE11Symbols:
    def test_hdtv_infeasible_testbed_feasible(self, holds):
        holds("e11", "the 1991 testbed is pipelined-feasible at average seek",
              "HDTV on 1991 hardware is not")


class TestE12Prototype:
    def test_session_continuous_and_rejects_at_capacity(self, holds):
        holds("e12", "every admitted request plays with 0 misses",
              "admission refuses a request after admitting at least one",
              "startup latency grows with each admitted request")
