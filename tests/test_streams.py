"""dustlab's random streams against numpy's ``default_rng``, the oracle.

``dustlab.streams`` computes numpy's ``SeedSequence`` -> ``PCG64`` outputs
without importing ``numpy.random``; these tests import it and compare raw
outputs, seeded states, doubles and the motions every trial draws.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, SeedSequence, default_rng

from dustlab import streams
from dustlab.errors import ParameterError
from dustlab.formats import write_bgr
from dustlab.geometry import BoxGrid, Isometry, Square
from dustlab.intersect import trial_motions
from dustlab.streams import Stream, check_seed, first_outputs, seed_words

SRC = Path(__file__).resolve().parents[1] / "src"


def sample_isometry(rng: np.random.Generator, translation_window: Square) -> Isometry:
    """Haar-distributed orthogonal part plus a uniform window translation.

    Draw order is fixed (theta, reflection coin, zx, zy) so a seeded
    generator reproduces the same motion.  The per-generator draw that
    ``trial_motions`` replaced, kept as its oracle.
    """
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    reflect = bool(rng.integers(0, 2))
    x0, y0 = translation_window.corner
    x1, y1 = translation_window.max_corner
    z = (float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)))
    return Isometry(theta, reflect, z)


def entropy_row(values):
    """One row of the entropy words numpy's ``SeedSequence(values)`` hashes."""
    return np.array([[w for v in values for w in seed_words(v)]], np.uint32)


seeds = st.integers(0, 2 ** 128)


@settings(max_examples=150, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=6), st.integers(1, 12))
@example([0], 4)
@example([2 ** 32 - 1], 4)
@example([2 ** 32], 4)
@example([2 ** 64 + 3], 4)
@example([10 ** 30], 4)
@example([10 ** 30, 2 ** 32 - 1], 4)  # five words: one past the pool
@example([2 ** 32, 2 ** 32 - 1], 4)  # the entropy of the last trial index trial_motions takes
def test_raw_outputs_equal_pcg64(values, count):
    ours = first_outputs(entropy_row(values), count)
    assert ours.shape == (count, 1)
    assert ours[:, 0].tolist() == PCG64(SeedSequence(values)).random_raw(count).tolist()


@settings(max_examples=150, deadline=None)
@given(seeds)
@example(0)
@example(2 ** 32 - 1)
@example(2 ** 32)
@example(2 ** 64 + 3)
@example(10 ** 30)
def test_seeded_state_equals_pcg64(seed):
    (hi, lo), (inc_hi, inc_lo) = streams._seeded(entropy_row([seed]))
    ref = PCG64(seed).state["state"]
    assert (int(hi[0]) << 64 | int(lo[0])) == ref["state"]
    assert (int(inc_hi[0]) << 64 | int(inc_lo[0])) == ref["inc"]


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 3000))
@example(0, 1)
@example(2 ** 32 - 1, 333)
@example(2 ** 32, 4097)
@example(2 ** 64 + 3, 2)
@example(10 ** 30, 1000)
def test_doubles_equal_generator_random(seed, n):
    assert Stream(seed).random(n).tolist() == default_rng(seed).random(n).tolist()


@pytest.mark.parametrize("sizes", [[1, 1, 1], [1, 7, 333, 1, 2 * streams.JUMP_BLOCK + 5, 3],
                                   [3 * streams.JUMP_BLOCK, 9, streams.JUMP_BLOCK - 1, 1]])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 3])
def test_successive_draws_continue_one_stream(seed, sizes):
    ours, ref = Stream(seed), default_rng(seed)
    for n in sizes:
        assert ours.random(n).tolist() == ref.random(n).tolist()


windows = st.builds(lambda x, y, side: Square((x, y), side),
                    st.floats(-1e12, 1e12), st.floats(-1e12, 1e12), st.floats(1e-9, 1e12))


def as_lists(motions):
    """The motion arrays (theta, reflect, z) as lists of Python scalars, dtypes and shapes checked."""
    theta, reflect, z = motions
    assert theta.dtype == np.float64 and reflect.dtype == np.bool_ and z.dtype == np.float64
    assert theta.shape == reflect.shape == z.shape[:1] and z.shape[1:] == (2,)
    return theta.tolist(), reflect.tolist(), [tuple(p) for p in z.tolist()]


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 40), windows)
@example(11, 40, Square((-1.4142135623730951, -1.4142135623730951), 1.0 + 2.0 * math.sqrt(2.0)))
@example(5, 3, Square((-3.5, 2.25), 0.75))
@example(2 ** 32 - 1, 7, Square((-1e15, 3e14), 2e15))
@example(2 ** 32, 2, Square((1e300, -1e300), 1e300))
@example(10 ** 30, 5, Square((0.0, 0.0), 1.0))
def test_trial_motions_equal_per_trial_generators(seed, count, window):
    ref = [sample_isometry(default_rng([seed, i]), window) for i in range(count)]
    theta, reflect, z = as_lists(trial_motions(window, seed, count))
    assert [Isometry(*m) for m in zip(theta, reflect, z)] == ref


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 40), st.integers(0, 40), windows)
@example(9, 12, 23, Square((-2.0, 5.0), 3.0))
@example(9, 0, 5, Square((-2.0, 5.0), 3.0))
def test_trial_motions_prefix_is_the_shorter_draw(seed, m, n, window):
    # trials are scored in blocks that slice one draw; any prefix is the draw of that many trials
    m, n = min(m, n), max(m, n)
    whole = as_lists(trial_motions(window, seed, n))
    assert as_lists(trial_motions(window, seed, m)) == tuple(column[:m] for column in whole)


def test_trial_indices_past_one_word_refused():
    with pytest.raises(ParameterError, match="below 2\\*\\*32"):
        trial_motions(Square.unit(), 1, 2 ** 32 + 1)


@pytest.mark.parametrize("seed", [-1, -2 ** 40, 1.0, 2.5, "3", None, np.bool_(True), np.float64(2.0)])
def test_check_seed_refuses_negative_and_non_integer_seeds(seed):
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        check_seed(seed)


@pytest.mark.parametrize("seed", [0, True, np.int64(3), np.uint64(2 ** 64 - 1), 10 ** 30])
def test_check_seed_passes_the_integers_numpy_takes(seed):
    check_seed(seed)
    assert Stream(seed).random(5).tolist() == default_rng(seed).random(5).tolist()


GUARD = """
import json, sys
import numpy
eager = "numpy.random" in sys.modules
from dustlab import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "eager": eager, "loaded": "numpy.random" in sys.modules,
                  "futures": "concurrent.futures" in sys.modules}))
"""


@pytest.mark.parametrize("argv", [
    ["john", "--alpha", "0.25", "--depth", "4", "--samples", "150", "--seed", "7",
     "--jobs", "1", "--out", "john.csv"],
    ["mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "7", "--b-dim", "1.7",
     "--b-depth", "4", "--trials", "20", "--seed", "1", "--out", "survey.csv"],
    ["construct", "--gen-alpha", "0.4", "--gen-depth", "4", "--level", "9", "--annuli", "4",
     "--trials", "40", "--seed", "5", "--out-prefix", "run"],
    ["gen", "--alpha", "0.25", "--depth", "3", "--level", "6", "--out", "c.cad",
     "--grid-out", "c.bgr"],
    ["dim", "--in", "c.bgr", "--out", "dim.csv"],
], ids=lambda argv: argv[0])
def test_no_subcommand_imports_numpy_random(tmp_path, argv):
    # each run is a fresh interpreter; dim reads a grid written here
    if argv[0] == "dim":
        write_bgr(BoxGrid(Square.unit(), 6, np.eye(64, dtype=bool)), tmp_path / "c.bgr")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", GUARD, json.dumps(argv)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    # numpy before 2.0 loads numpy.random with numpy itself; then nothing is left to check
    assert result["loaded"] == result["eager"]
    # no module starts a thread pool, so the pool module (and logging) stays unloaded
    assert not result["futures"]
