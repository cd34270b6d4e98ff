"""Block seeding (crn_multicast.seeding) against numpy's own SeedSequence:
every generator a block builds must be default_rng((seed, *stream)) in
state, for seeds of one, two, three and four 32-bit words."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crn_multicast import experiment
from crn_multicast.assignment import Scheme
from crn_multicast.experiment import ScenarioParams, run_scenario_sessions
from crn_multicast.seeding import generators, stream_words
from crn_multicast.session import TreeKind

ROOT = Path(__file__).resolve().parents[1]

# The four streams of a seed: topology, destinations and each tree kind's events.
STREAMS = (
    experiment._STREAM_TOPOLOGY,
    experiment._STREAM_DESTINATIONS,
    *experiment._events_streams((TreeKind.SPT, TreeKind.MST)),
)
SEEDS = [
    *range(3000),
    *range(2**32 - 3, 2**32 + 3),
    *range(2**64 - 2, 2**64 + 2),
    2**96 + 12345,
]


def assert_default_rng_states(seeds, streams=STREAMS):
    words = stream_words(seeds, streams)
    assert words.shape == (len(seeds), len(streams), 4) and words.dtype == np.uint64
    rngs = generators(words.reshape(-1, 4))
    for i, seed in enumerate(seeds):
        for j, stream in enumerate(streams):
            want = np.random.default_rng((seed, *stream)).bit_generator.state
            assert rngs[len(streams) * i + j].bit_generator.state == want, (seed, stream)


def test_every_stream_matches_default_rng_across_word_counts():
    # One call: seeds of one to four words are hashed in groups of their own.
    assert_default_rng_states(SEEDS)


@pytest.mark.parametrize("seeds", [[2**32 - 1, 2**32], [2**64 - 1, 2**64], [2**96 + 12345], [7]])
def test_small_blocks_match_default_rng(seeds):
    assert_default_rng_states(seeds)


def test_streams_of_any_width_match_default_rng():
    # A three-word seed under two-tag streams has 5 entropy words: past the
    # pool, mixed in rather than padded.
    assert_default_rng_states([0, 2**70 + 3], streams=((0,), (2, 1), (5, 6, 7), ()))


def test_numpy_integers_are_seeds_like_ints():
    seeds = [np.int64(5), np.uint64(2**63 + 1), True]
    assert np.array_equal(stream_words(seeds, STREAMS), stream_words([5, 2**63 + 1, 1], STREAMS))


def test_block_draws_come_from_its_event_words():
    seeds, trees = [3, 2**32 + 1], (TreeKind.MST, TreeKind.SPT)
    words = experiment._block_stages(ScenarioParams(n_nodes=14, n_dest=5), trees, seeds)[1]
    assert np.array_equal(words, stream_words(seeds, experiment._events_streams(trees)).reshape(-1, 4))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (3.0, TypeError), ("3", TypeError)])
def test_bad_seed_raises_before_any_generator(monkeypatch, seed, error):
    def refuse(words):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(experiment, "generators", refuse)
    with pytest.raises(error):
        run_scenario_sessions(ScenarioParams(n_nodes=14, n_dest=5), [Scheme.POS], [TreeKind.SPT], seed=seed)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)])
def test_seed_words_answer_only_pcg64s_request(n_words, dtype):
    seed_seq = generators(stream_words([1], STREAMS)[0])[0].bit_generator.seed_seq
    assert np.array_equal(seed_seq.generate_state(4, np.uint64), stream_words([1], STREAMS)[0, 0])
    with pytest.raises(ValueError, match="4 uint64 words only"):
        seed_seq.generate_state(n_words, dtype)


def test_importing_the_package_leaves_numpy_random_unimported():
    code = "import sys, crn_multicast.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"
