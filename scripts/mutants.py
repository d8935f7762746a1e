#!/usr/bin/env python3
"""Re-run every recorded mutation check: each mutant must still be killed.

A fast path is checked against the round model (``tests/round_model.py``)
or a written spec, and a check is only worth what it catches.  Each row
below is one mutant: the change that recorded it, a label, a file, the
exact text it replaces (which must occur exactly once in the tree), the
text it puts there, and the test that kills it.  The script copies the
tree to a temporary directory — it never touches the checkout — and, one
mutant at a time, applies it there, runs its killing test (Hypothesis
seeded, so a run is repeatable, and not shrinking the first failure), and
puts the file back.  A mutant is killed when that test fails; the script
exits non-zero if any mutant survives, its test runs past ten minutes, or
an old text does not occur exactly once.

    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = "src/repro/service/rounds.py"
CACHE = "src/repro/disk/cache.py"
PLACER = "src/repro/disk/allocation.py"
PLAYBACK = "src/repro/service/playback.py"
STRIPES = "src/repro/disk/raid.py"
RECORDER = "src/repro/obs/recorder.py"
RPC = "src/repro/service/rpc.py"
API = "src/repro/api.py"
PROFILER = "src/repro/obs/profiling.py"
SERVER = "src/repro/server/media_server.py"
ROUTER = "src/repro/cluster/router.py"
NODE = "src/repro/cluster/node.py"

EQUIVALENCE = "tests/perf/test_equivalence.py::TestServiceEquivalence::"
MODEL = "tests/service/test_round_model.py::test_the_loop_serves_what_the_model_states"
PLACES = "tests/disk/test_placer_reference.py::"
CACHED = (
    "tests/disk/test_cache_reference.py::TestOneFrameReadMatchesTheReference::"
    "test_generated_sequences_agree"
)
EXTEND = (
    "tests/fs/test_strand_extend_reference.py::TestBulkEqualsPerBlock::"
    "test_columns_index_and_header"
)
TIMELINE = "tests/obs/test_timeline_reference.py::"
SIZES = "tests/service/test_rpc.py::TestSizingRules::test_rule"
CAPTURES = "tests/media/test_frame_column.py::"
WARMING = "tests/cluster/test_warm_by_state.py::"
CHECKPOINTS = (
    "tests/obs/test_profiling.py::TestCostProfiler::"
    "test_a_checkpoint_samples_exactly_the_summary_totals"
)
LIVE = "tests/server/test_live_set.py::"
PLANS = "tests/server/test_media_server.py::TestPlansOnlyWhereADecisionReadsOne::"
SCORES = (
    "tests/service/test_scoring_reference.py::TestScorerMatchesPerBlockScoring::"
    "test_generated_delivery_traces"
)
CLUSTER_RUNS = "tests/cluster/test_node_runs.py::"


#: The change that recorded each mutant, by the name it goes by in
#: CHANGES.md and the retired-names table.
WAKES = "one wake time per stream"
CURSOR = "one cursor answer per turn"
STRANDS = "one pass per strand"
FOLDS = "one fold per landed block"
CHANGED = "pay for what changed"
TURNS = "a round costs only the turns it serves"
WATCHING = "watching is not walking"
ORACLE = "one oracle"
ONE_COPY = "one copy of each mechanism"
ONE_SIMULATOR = "one simulator"
COLUMNS = "a recording is columns"
SHAPES = "a message is sized by its shape"
TRAFFIC = "keep what the traffic runs"
COLUMN = "captured video is a column"
WARM = "warm by state"
ONE_JOIN = "one join, one kind of round"
PER_CALL = "the write path pays per call"
LIVE_SET = "one live set"
ONE_PLAN = "one plan per shared read"
ONE_TIMELINE = "one timeline per serve"
NODE_TIMELINES = "the cluster runs on its nodes' own timelines"


class Mutant(NamedTuple):
    change: str
    label: str
    path: str
    old: str
    new: str
    test: str


WAKE = "                stream._wake = wake = ends[count]\n"
FORWARD = "                    center + near, (high if high < last else last) + 1\n"
BACKWARD = "                        low if low > 0 else 0, center - near + 1\n"
#: A hop's forward scan, from its range's arguments to the backward
#: scan's: the two loops differ in indentation only.
PROBE = (
    "                ):\n"
    "                    stop = starts[cylinder + 1]\n"
    "                    slot = find(_FREE, starts[cylinder], stop)\n"
    "                    if slot == previous:\n"
    "                        slot = find(_FREE, previous + 1, stop)\n"
    "                    if slot >= 0:\n"
    "                        break\n"
    "                else:\n"
    "                    for cylinder in range(\n"
)
FOLD = (
    "            if started:\n"
    "                stream.clock_start = end = time\n"
    "                stream._read_ahead = len(ready)\n"
    "                for landed, duration in zip(ready, durations):\n"
    "                    end = max(end, landed) + duration\n"
    "                    ends.append(end)\n"
)
STORE = (
    "            if quota == room:\n"
    "                # The turn filled the buffer as of its consumption answer: a\n"
    "                # slot frees when block `count` plays out.  One that did so\n"
    "                # during the reads leaves a past wake, as a buffer with room.\n"
    + WAKE
)

MUTANTS = [
    # Re-expressed on today's one-column loop.
    Mutant(WAKES, "wake stored before the clock starts", ROUNDS,
           FOLD + STORE,
           "            if quota == room and count < len(ends):\n" + WAKE + FOLD,
           EQUIVALENCE + "test_clock_starting_in_the_turn_that_fills_the_buffer"),
    Mutant(WAKES, "no fullness check", ROUNDS,
           "            if quota == room:\n",
           "            if quota == room or count < len(ends):\n",
           EQUIVALENCE + "test_generated_loads"),
    Mutant(WAKES, "`<=` skip", ROUNDS,
           "            if time < wake:\n", "            if time <= wake:\n",
           EQUIVALENCE + "test_generated_loads_through_a_cache"),
    Mutant(WAKES, "no stale-wake refresh", ROUNDS,
           "            elif wake < soonest:",
           "            elif quota == room and wake < soonest:",
           EQUIVALENCE + "test_generated_loads"),
    Mutant(CURSOR, "wake from max(time, ...)", ROUNDS,
           WAKE, "                stream._wake = wake = max(time, ends[count])"
           " + 1e-9\n",
           EQUIVALENCE + "test_generated_loads"),
    Mutant(CURSOR, "a start wake 5 ms late", ROUNDS,
           WAKE,
           "                stream._wake = wake = ends[count] + 0.005 * started\n",
           EQUIVALENCE + "test_clock_starting_in_the_turn_that_fills_the_buffer"),
    Mutant(CURSOR, "compaction skipped after finishes", ROUNDS,
           "                finished = True\n", "                pass\n",
           EQUIVALENCE + "test_generated_loads"),
    # The placer's four.
    Mutant(STRANDS, "placer: backward cylinders before forward ones", PLACER,
           FORWARD + PROBE + BACKWARD, BACKWARD + PROBE + FORWARD,
           PLACES + "TestPlacerEqualsTheScan::"
           "test_strands_from_hints_on_occupied_disks"),
    Mutant(STRANDS, "placer: the previous slot not skipped", PLACER,
           "\n                    if slot == previous:\n",
           "\n                    if slot == previous and False:\n",
           PLACES + "TestPlacerEqualsTheScan::"
           "test_after_a_previous_slot_that_is_itself_free"),
    Mutant(STRANDS, "placer: the far end not trimmed", PLACER,
           "        while far > near and not bounds.admits(gap(0, far)):\n",
           "        while False:\n",
           PLACES + "TestBoundsOneUlpFromAGap::"
           "test_a_gap_one_ulp_above_the_upper_bound_is_refused"),
    Mutant(STRANDS, "placer: the near end not trimmed", PLACER,
           "        while near <= far and not bounds.admits(gap(0, near)):\n",
           "        while False:\n",
           PLACES + "TestBoundsOneUlpFromAGap::"
           "test_a_gap_one_ulp_below_the_lower_bound_is_refused"),
    Mutant(FOLDS, "the stored wake one block late", ROUNDS,
           WAKE, "                stream._wake = wake = ends[min(count + 1,"
           " len(ends) - 1)]\n",
           EQUIVALENCE + "test_generated_loads"),
    Mutant(FOLDS, "the loop fold drops the stall", ROUNDS,
           "                    end = max(end, time) + durations[index]\n",
           "                    end = end + durations[index]\n",
           EQUIVALENCE + "test_generated_loads"),
    Mutant(CHANGED, "repair ignores relocations", "src/repro/rope/server.py",
           "if rope_then is operand and then == relocations:",
           "if rope_then is operand:",
           "tests/rope/test_repair_reference.py::TestRepairMatchesTheWholeRopePass::"
           "test_a_relocation_voids_what_was_verified"),
    Mutant(CHANGED, "repair trusts every operand", "src/repro/rope/server.py",
           "if rope_then is operand and then == relocations:", "if True:",
           "tests/rope/test_repair_reference.py::TestRepairMatchesTheWholeRopePass::"
           "test_generated_scripts_agree"),
    Mutant(CHANGED, "MRU eviction", CACHE,
           "resident.popitem(last=False)", "resident.popitem(last=True)", CACHED),
    Mutant(CHANGED, "a dropped eviction count", CACHE,
           "            stats.evictions += 1\n", "", CACHED),
    Mutant(CHANGED, "a dropped defect invalidation", CACHE,
           "            # (data cached before the defect surfaced may predate it).\n"
           "            cache.invalidate(slot)\n",
           "",
           "tests/disk/test_cache_reference.py::TestOneFrameReadMatchesTheReference::"
           "test_a_defect_on_a_pinned_absent_slot_counts_its_invalidation"),
    Mutant(TURNS, "a stream that finished this turn counted into `soonest`", ROUNDS,
           "                finished = True\n            elif wake < soonest:",
           "                finished = True\n            if wake < soonest:", MODEL),
    Mutant(WATCHING, "the per-stream fold not seeded", RECORDER,
           "stream.turn_cost = self._prof.stream_cost(stream.request_id)",
           "stream.turn_cost = 0.0", MODEL),
    # Each new spec kills mutants of its own.
    Mutant(ORACLE, "the round guard trips one round early", ROUNDS,
           "if round_number > max_rounds:",
           "if round_number >= max_rounds:", MODEL),
    Mutant(ORACLE, "the loop ignores its order policy", ROUNDS,
           "visit = order(self.drive, active, round_number) if order else active",
           "visit = active", EQUIVALENCE + "test_generated_loads_in_scan_order"),
    Mutant(ORACLE, "after-turn work never counts as progress", ROUNDS,
           "                    progressed = progressed or served\n", "",
           EQUIVALENCE + "test_record_and_text_after_the_turns"),
    Mutant(ORACLE, "score: a skip is not a miss", "src/repro/sim/metrics.py",
           "                skips += 1\n                misses += 1\n",
           "                skips += 1\n", SCORES),
    Mutant(ORACLE, "score: high-water sampled from block 0", "src/repro/sim/metrics.py",
           "            if index < high_water_from:\n", "            if index < 0:\n",
           SCORES),
    Mutant(ORACLE, "placer: a flat curve's near distances refused", PLACER,
           "        while near > 0 and bounds.admits(gap(0, near - 1)):\n",
           "        while False:\n",
           PLACES + "TestAdmittedDistancesOutsideTheClosedFormWindow::"
           "test_a_flat_seek_curve_admits_the_nearest_cylinder"),
    Mutant(ORACLE, "placer: the far end not extended", PLACER,
           "        while far < cylinders - 1 and bounds.admits(gap(0, far + 1)):\n",
           "        while False:\n",
           PLACES + "TestAdmittedDistancesOutsideTheClosedFormWindow::"
           "test_an_upper_bound_equal_to_a_gap_admits_that_distance"),
    Mutant(ORACLE, "strand: each call's units counted from block 0",
           "src/repro/fs/strand.py",
           "spb, units=sum(units),", "spb, units=sum(self._block_units),",
           EXTEND),
    Mutant(ORACLE, "strand: a primary entry addressed by slot, not sector",
           "src/repro/fs/strand.py",
           "None if slot is None else slot * spb for slot in slots",
           "None if slot is None else slot for slot in slots", EXTEND),
    Mutant(ORACLE, "index: a secondary entry counts the room, not the blocks",
           "src/repro/fs/index.py",
           "block_count=len(primary.entries),", "block_count=room,", EXTEND),
    Mutant(ORACLE, "cache: a pin that is not all-or-nothing", CACHE,
           "        if any(slot not in self._resident for slot in wanted):\n",
           "        if all(slot not in self._resident for slot in wanted):\n", CACHED),
    Mutant(ORACLE, "timeline: every sampled block counted as read", RECORDER,
           '"read-start": read,', '"read-start": blocks,',
           TIMELINE + "test_tally_summarises_as_the_event_store_did"),
    Mutant(ORACLE, "timeline: consumed before the clock started", RECORDER,
           '"consumed": 0 if start is None else blocks - dropped,',
           '"consumed": blocks - dropped,',
           TIMELINE + "test_for_scale_lattice_past_the_prefix"),
    Mutant(ONE_COPY, "record: each block scored against the next one's deadline",
           "src/repro/service/mixed_rounds.py",
           "map(self.deadline_of, range(len(written)))",
           "map(self.deadline_of, range(1, len(written) + 1))",
           "tests/service/test_mixed_rounds.py::TestRecordStream::"
           "test_results_score_the_written_column"),
    Mutant(ONE_COPY, "revalidation: a lost head does not freeze admission",
           "src/repro/fs/storage_manager.py",
           "        self.admission.freeze()\n", "",
           "tests/obs/test_admission_audit.py::TestRevalidateAudit::"
           "test_last_head_freezes_admission_and_fails_constraint"),
    Mutant(ONE_SIMULATOR, "Fig. 1: the display conversion dropped", PLAYBACK,
           "read_slot(slot, bits) + shown / self.display_rate",
           "read_slot(slot, bits)",
           "tests/service/test_playback.py::TestSequential::"
           "test_needs_more_slack_than_pipelined"),
    Mutant(ONE_SIMULATOR, "Fig. 3: a block lands when its own member does",
           STRIPES,
           "        elapsed = max(self._busy) - self._charged\n",
           "        elapsed = max(self._charged, self._busy[block % p])"
           " - self._charged\n",
           "tests/disk/test_raid.py::TestBatchReads::"
           "test_batch_duration_is_slowest_member"),
    Mutant(ONE_SIMULATOR, "Fig. 3: a retry counted on the stripe's first member",
           STRIPES,
           "        self.stats = self.members[block % p].stats\n", "",
           "tests/disk/test_raid.py::TestStripesUnderFaults::"
           "test_a_transient_is_retried_on_its_member_alone"),
    Mutant(ONE_SIMULATOR, "trick play: a tie counted as still playing", PLAYBACK,
           "        played = bisect_right(ends, landed)\n",
           "        played = sum(1 for end in ends if end < landed)\n",
           "tests/service/test_variable_speed.py::TestTrickPlayMatchesTheModel::"
           "test_generated_plans"),
    Mutant(COLUMNS, "block_at: a MIXED block's video bits as payload less audio",
           "src/repro/fs/strand.py",
           "self._video_bits[block_number], self._audio[block_number],",
           "self._block_bits[block_number] - getattr("
           "self._audio[block_number], 'bits', 0.0), self._audio[block_number],",
           "tests/fs/test_strand.py::TestBlocksAreViews::"
           "test_a_mixed_block_round_trips_exactly"),
    Mutant(COLUMNS, "extend: a negative video_bits let through",
           "src/repro/fs/strand.py",
           "        if min(bits, default=0.0) < 0:\n", "        if False:\n",
           "tests/fs/test_strand.py::TestRecording::"
           "test_the_block_checks_run_over_the_columns"),
    Mutant(COLUMNS, "placer: every hop anchored at the head's cylinder", PLACER,
           "                previous, center = slot, cylinder\n",
           "                previous = slot\n",
           PLACES + "TestPlacerEqualsTheScan::"
           "test_strands_from_hints_on_occupied_disks"),
    Mutant(SHAPES, "sizing: a bool admitted to the numeric shortcut", RPC,
           "_NUMBERS = frozenset((int, float))",
           "_NUMBERS = frozenset((int, float, bool))", SIZES),
    Mutant(SHAPES, "sizing: the shortcut drops the 8-byte envelope", RPC,
           "                return 8 + 8 * len(value)\n",
           "                return 8 * len(value)\n", SIZES),
    Mutant(SHAPES, "sizing: the shortcut taken when an item is a str", RPC,
           "_NUMBERS = frozenset((int, float))",
           "_NUMBERS = frozenset((int, float, str))", SIZES),
    Mutant(SHAPES, "sizing: one class's field names used for every class", RPC,
           "    names = _FIELD_NAMES.get(cls)\n",
           "    names = next(iter(_FIELD_NAMES.values()), None)\n", SIZES),
    Mutant(SHAPES, "sizing: a sequence of numbers sized item by item", RPC,
           "            if {*map(type, value)} <= _NUMBERS:\n",
           "            if False:\n",
           "tests/perf/test_operation_counts.py::TestSizingIsByShape::"
           "test_a_long_plan_costs_no_more_calls_than_a_short_one"),
    Mutant(SHAPES, "k bound: a frozen refusal reports the solve's n_max",
           "src/repro/core/admission.py",
           "            capacity = 0 if frozen else n_max(params)\n",
           "            capacity = n_max(params)\n",
           "tests/obs/test_admission_audit.py::TestKBoundRefusalNamesItsCause"),
    # The cluster's tally is the server's: its own skip test left, so it
    # rests on the scorer counting a skip as a miss.
    Mutant(TRAFFIC, "score: a skip not counted as a miss", "src/repro/sim/metrics.py",
           "                skips += 1\n                misses += 1\n",
           "                skips += 1\n",
           "tests/server/test_golden_server.py::TestFaultGolden::"
           "test_a_session_that_skipped_is_not_continuous"),
    Mutant(TRAFFIC, "tally: a REJECTED session counted as admitted", API,
           "1 for s in self.statuses if s.state is not SessionState.REJECTED",
           "1 for s in self.statuses",
           "tests/server/test_api.py::TestClusterMessages::"
           "test_admitted_excludes_rejected"),
    Mutant(TRAFFIC, "tally: a non-COMPLETED session counted as continuous", API,
           "if s.state is SessionState.COMPLETED and s.continuous",
           "if s.continuous",
           "tests/server/test_api.py::TestClusterMessages::"
           "test_continuous_requires_glitch_free_completion"),
    Mutant(COLUMN, "a slice drops its first-index offset",
           "src/repro/media/frames.py",
           "                self.indices[key],\n",
           "                range(len(self.tokens[key])),\n",
           CAPTURES + "TestColumnMatchesTheSpec::test_generated_captures"),
    Mutant(COLUMN, "the capture-time size check is skipped",
           "src/repro/media/frames.py",
           "    if not min(sizes, default=1.0) > 0:", "    if False:",
           CAPTURES + "TestColumnMatchesTheSpec::"
           "test_a_codec_size_at_or_below_zero_is_refused_at_capture"),
    Mutant(COLUMN, "a hand-built list's tokens are cut one frame late",
           "src/repro/fs/storage_manager.py",
           "        tokens = tuple(frame.token for frame in frames)\n",
           "        tokens = (*(f.token for f in frames[1:]), frames[-1].token)\n",
           CAPTURES + "TestRecordingAColumnEqualsRecordingItsList::test_video"),
    Mutant(WARM, "the plan is read in reverse", "src/repro/cluster/node.py",
           "zip(fetches.slots, fetches.bits)",
           "zip(fetches.slots[::-1], fetches.bits[::-1])",
           WARMING + "test_warming_leaves_what_a_warm_up_session_leaves"),
    Mutant(WARM, "a block's payload size is dropped", "src/repro/cluster/node.py",
           "                read(slot, bits)\n", "                read(slot)\n",
           WARMING + "test_warming_leaves_what_a_warm_up_session_leaves"),
    Mutant(WARM, "the warm-up request is left open", "src/repro/cluster/node.py",
           "        mrs.stop(request_id)\n", "",
           WARMING + "test_warming_serves_no_session"),
    Mutant(WARM, "a checkpoint's positioning leaves out rotation", PROFILER,
           "seek += stats.seek_time + stats.rotation_time - then[0][2]",
           "seek += stats.seek_time - then[0][2]", CHECKPOINTS),
    Mutant(WARM, "a checkpoint leaves out cache hit time", PROFILER,
           "lookup += device.cache.stats.hits * device.hit_time - then[0][2]",
           "lookup += 0.0", CHECKPOINTS),
    Mutant(PER_CALL, "a leading NaN size hides a bad one",
           "src/repro/media/frames.py",
           "    if not min(sizes, default=1.0) > 0:",
           "    if min(sizes, default=1.0) <= 0:",
           CAPTURES + "TestColumnMatchesTheSpec::"
           "test_a_nan_size_hides_no_bad_size_after_it"),
    Mutant(PER_CALL, "placer: a failed hop leaves the free count stale", PLACER,
           "        finally:\n"
           "            freemap._free_count -= len(slots) - placed\n",
           "        except ScatteringError:\n"
           "            raise\n"
           "        else:\n"
           "            freemap._free_count -= len(slots) - placed\n",
           "tests/fs/test_write_path.py::TestFailedStoreOwnsNothing::"
           "test_chain_failure_mid_strand_returns_the_placed_prefix"),
    Mutant(PER_CALL, "placer: a hop marks its slot free", PLACER,
           "                state[slot] = _USED\n",
           "                state[slot] = _FREE\n",
           PLACES + "TestPlacerEqualsTheScan::"
           "test_strands_from_hints_on_occupied_disks"),
    Mutant(PER_CALL, "placer: the previous slot not skipped going backward",
           PLACER,
           "                        if slot == previous:\n",
           "                        if slot == previous and False:\n",
           PLACES + "TestPlacerEqualsTheScan::"
           "test_after_a_previous_slot_that_is_itself_free"),
    Mutant(PER_CALL, "the fixed-rate column skips its raw-size check",
           "src/repro/media/codec.py",
           "        if raw_bits <= 0:\n"
           "            raise ParameterError(f\"raw_bits must be positive, got "
           "{raw_bits}\")\n"
           "        return [raw_bits / self.ratio] * count\n",
           "        return [raw_bits / self.ratio] * count\n",
           "tests/media/test_codec.py::TestFixedRateCodec::"
           "test_rejects_bad_raw_size"),
    Mutant(PER_CALL, "the differencing column's key frames one frame early",
           "src/repro/media/codec.py",
           "        return (group * -(-count // self.group_size))[:count]\n",
           "        return (group * -(-count // self.group_size) + group)"
           "[1:count + 1]\n",
           CAPTURES + "TestColumnMatchesTheSpec::test_generated_captures"),
    Mutant(PER_CALL, "a capture reports its last bad size, not its first",
           "src/repro/media/frames.py",
           "        for bad in sizes:\n", "        for bad in reversed(sizes):\n",
           CAPTURES + "TestColumnMatchesTheSpec::"
           "test_a_codec_size_at_or_below_zero_is_refused_at_capture"),
    Mutant(ONE_JOIN, "a join admitted one round late", ROUNDS,
           "            while joins[next_pending] <= time:\n",
           "            while joins[next_pending] < time:\n",
           "tests/service/test_rounds.py::TestMultipleStreams::"
           "test_a_join_at_a_rounds_start_is_served_in_that_round"),
    Mutant(ONE_JOIN, "the idle wait ignores the next join", ROUNDS,
           "            if joins[next_pending] < wake:\n"
           "                wake = joins[next_pending]\n",
           "", MODEL),
    Mutant(ONE_JOIN, "start-up measured from the origin, not the join", ROUNDS,
           "stream.metrics.startup_latency = start - admission.join",
           "stream.metrics.startup_latency = start",
           LIVE + "TestOneServer"),
    Mutant(LIVE_SET, "a resumed run starts a round past its stop", ROUNDS,
           "            if joins[next_pending] <= time:\n"
           "                break   # the stop: a round would start at or after it\n",
           "", "tests/service/test_round_model.py::"
           "test_a_run_resumed_at_each_join_is_the_whole_run"),
    Mutant(LIVE_SET, "the loop runs to an open only after a session could "
           "have played out, not at that moment", SERVER,
           "return any(self._plan(session)[1] <= at for session in self.live())",
           "return any(self._plan(session)[1] < at for session in self.live())",
           LIVE + "test_the_loop_runs_to_an_open_once_a_session_could_have_"
           "played_out"),
    Mutant(LIVE_SET, "a session played out exactly at an arrival stays live",
           SERVER, "and (not stream.ends or stream.ends[-1] <= at)",
           "and (not stream.ends or stream.ends[-1] < at)",
           LIVE + "test_a_session_leaves_its_lease_once_its_last_block_has_"
           "played_out"),
    Mutant(LIVE_SET, "a joiner that needs a larger k joins at once", SERVER,
           "if not queue or running and max(1, controller.current_k) > self.k:",
           "if not queue:",
           LIVE + "test_a_joiner_that_needs_a_larger_k_waits_for_the_running_"
           "streams"),
    Mutant(LIVE_SET, "a verb is applied where the loop stands, not at its "
           "arrival", SERVER,
           "            self._reach(at)\n            self._apply(item)\n",
           "            self._apply(item)\n",
           LIVE + "test_a_stop_or_pause_ends_the_reads_of_a_session_at_its_"
           "arrival"),
    Mutant(LIVE_SET, "a PAUSE or STOP leaves the loop reading the stream",
           SERVER, "stream._wake = float(\"inf\")", "pass",
           LIVE + "test_a_parked_stream_is_not_read_while_a_later_verb_runs_"
           "the_loop"),
    Mutant(LIVE_SET, "a RESUME leaves the stream parked", SERVER,
           "stream._wake = wake + held if wake > paused else wake", "pass",
           LIVE + "test_a_pause_and_resume_of_a_session_the_loop_reads_plays_"
           "it_once"),
    Mutant(LIVE_SET, "a verb to a played-out session is applied as to a live "
           "one", SERVER,
           "if sid in self.released and not isinstance(request, StopRequest):",
           "if False:",
           LIVE + "TestOneServer"),
    Mutant(ONE_PLAN, "the plan key drops the interval's start", SERVER,
           "key = (request.rope_id, request.start, request.length, request.media)",
           "key = (request.rope_id, request.length, request.media)",
           PLANS + "test_two_intervals_of_one_rope_are_two_plans"),
    Mutant(ONE_PLAN, "the plan key drops the media", SERVER,
           "key = (request.rope_id, request.start, request.length, request.media)",
           "key = (request.rope_id, request.start, request.length)",
           PLANS + "test_two_media_of_one_rope_are_two_plans"),
    Mutant(ONE_PLAN, "the plan table survives across serve calls", SERVER,
           "        self._plans = {}\n"
           "        try:\n"
           "            return self._serve(requests)\n"
           "        finally:\n"
           "            self._plans = None   # an edit between two calls is "
           "re-planned\n",
           "        if self._plans is None:\n"
           "            self._plans = {}\n"
           "        return self._serve(requests)\n",
           PLANS + "test_a_rope_edited_between_two_serves_is_planned_again"),
    Mutant(ONE_PLAN, "the plan table outlives a serve that raised", SERVER,
           "        try:\n"
           "            return self._serve(requests)\n"
           "        finally:\n"
           "            self._plans = None   # an edit between two calls is "
           "re-planned\n",
           "        result = self._serve(requests)\n"
           "        self._plans = None\n"
           "        return result\n",
           PLANS + "test_a_rope_edited_between_two_serves_is_planned_again"),
    Mutant(ONE_PLAN, "a verb to a session refused before lists it again",
           SERVER,
           "if isinstance(request, ResumeRequest) and status.state is "
           "SessionState.REJECTED:",
           "if status.state is SessionState.REJECTED:",
           "tests/server/test_media_server.py::TestTypedRejects::"
           "test_a_stop_of_a_session_refused_in_the_same_serve_is_listed_once"),
    Mutant(ONE_TIMELINE, "verbs are decided after every open", SERVER,
           "key=itemgetter(0, 1),",
           "key=lambda entry: (type(entry[2]) in _VERBS, *entry[:2]),",
           LIVE + "test_a_stop_frees_its_slot_for_a_later_open_of_the_same_serve"),
    Mutant(ONE_TIMELINE, "the loop's clock starts at the first arrival it takes",
           SERVER, "self.joining.append(Admission(session.arrival, stream))",
           "self.joining.append(Admission(session.arrival - min("
           "s.arrival for s in queue), stream))",
           LIVE + "test_a_serve_runs_on_the_clock_of_its_requests"),
    Mutant(ONE_TIMELINE, "a session joins the loop at its open's arrival, not its "
           "PLAY's", SERVER,
           "        session.arrival = max(session.arrival, arrival)\n", "",
           LIVE + "test_a_session_joins_the_loop_at_the_play_that_starts_it"),
    Mutant(ONE_TIMELINE, "a serve that raised leaves what it admitted", SERVER,
           "            epoch.finish()   # what it admitted plays out and lets go",
           "            pass",
           LIVE + "test_a_serve_that_raises_before_its_loop_starts_plays_out_"
           "what_it_admitted"),
    Mutant(ONE_TIMELINE, "a RESUME does not hold playback for the pause", SERVER,
           "            held = request.arrival - paused\n",
           "            held = 0.0\n",
           LIVE + "test_a_resume_holds_playback_for_the_pause"),
    Mutant(NODE_TIMELINES, "a kill fires at the next chunk boundary", ROUTER,
           "(at_time if at_op is None else at_op / chunks * horizon, -1, index)",
           "(-(-at_time * chunks // horizon) * horizon / chunks if at_op is None"
           " else at_op / chunks * horizon, -1, index)",
           CLUSTER_RUNS + "test_a_kill_at_a_time_hands_off_at_that_time"),
    Mutant(NODE_TIMELINES, "routing counts a played-out session as live", NODE,
           "return len(self._pending) + (len(self._run.live()) if self._run else 0)",
           "return len(self._pending) + len(self._plays)",
           "tests/server/test_arrival_time.py::"
           "test_sessions_that_never_overlap_are_all_admitted_by_a_cluster"),
    Mutant(NODE_TIMELINES, "a handoff resumes at block 0", ROUTER,
           "media=session.media, first_block=block,",
           "media=session.media, first_block=0,",
           CLUSTER_RUNS + "test_a_kill_at_a_time_hands_off_at_that_time"),
    Mutant(NODE_TIMELINES, "pending opens are submitted one batch each", NODE,
           "run.feed([request for request, _ in pending])",
           "[run.feed([request]) for request, _ in pending]",
           CLUSTER_RUNS + "test_the_opens_a_node_is_routed_in_one_window_are_"
           "one_batch"),
    Mutant(NODE_TIMELINES, "a dead node's run plays its sessions out", NODE,
           "            run.submit(at, StopRequest(sid, arrival=at), 0)\n",
           "            run.catch_up(at)\n",
           CLUSTER_RUNS + "test_a_kill_at_a_time_hands_off_at_that_time"),
    Mutant(NODE_TIMELINES, "a stream a verb took off the loop lists its whole "
           "plan", SERVER, "tuple(self.plans[sid][0].slots[:fetched.get(sid)])",
           "tuple(self.plans[sid][0].slots)",
           LIVE + "test_a_stream_a_verb_took_off_the_loop_lists_only_what_it_"
           "read"),
    Mutant(NODE_TIMELINES, "a RESUME in a later serve reads from block 0",
           SERVER,
           "            server._sessions[sid].first_block += stream.next_fetch\n",
           "", LIVE + "test_a_session_paused_in_one_serve_resumes_in_the_next_"
           "where_it_stopped"),
]


def run(copy: Path, mutant: Mutant) -> str:
    """Apply *mutant* in *copy*, run its killing test, restore the file;
    returns the verdict."""
    path = copy / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"old text occurs {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new))
    # No bytecode cache: two mutants of one file can share a size and a
    # modification second.
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--hypothesis-profile=mutants", mutant.test],
            cwd=copy, env=env, capture_output=True, text=True, timeout=600,
        ).returncode
    except subprocess.TimeoutExpired:
        return "timed out"
    finally:
        path.write_text(text)
    # pytest exits 1 when a test failed; 0 is a survivor, anything else
    # (no such test, a collection error) is no verdict at all.
    return {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exited {code}")


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out",
        ))
        for mutant in MUTANTS:
            verdict = run(copy, mutant)
            failed += verdict != "killed"
            print(f"{verdict:<8}  {mutant.change}: {mutant.label}\n"
                  f"          <- {mutant.test}", flush=True)
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
