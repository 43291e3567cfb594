import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stickywalk.errors import CapacityError
from stickywalk.kernel import (
    EndpointSample,
    StickinessParam,
    WalkState,
    _chunk_classes,
    _classify,
    _cut_ranks,
    _walk_draws,
    path_rng,
    simulate_endpoints,
    step,
    stickiness_u,
)


class FakeRNG:
    """Feeds preset uniforms to step() so each kernel interval can be hit exactly."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_stickiness_u_examples():
    assert stickiness_u(0.0) == 1.0
    assert stickiness_u(2.0) == 1.5
    assert abs(stickiness_u(1e12) - 2.0) <= 1e-11 * 2.0
    assert stickiness_u(1e308) == 2.0  # 2 * delta overflows


@pytest.mark.parametrize("bad", [-1.0, -1e-9, math.inf, -math.inf, math.nan])
def test_stickiness_u_domain(bad):
    with pytest.raises(ValueError):
        stickiness_u(bad)


@given(st.floats(min_value=0.0, max_value=1e9), st.floats(min_value=0.0, max_value=1e9))
@settings(max_examples=200, deadline=None)
def test_u_monotone_and_bounded(d1, d2):
    u1, u2 = stickiness_u(d1), stickiness_u(d2)
    assert 1.0 <= u1 < 2.0 and 1.0 <= u2 < 2.0
    if d1 < d2:
        assert u1 <= u2
        # strictness is only visible once the analytic gap clears an ulp
        if 2.0 * (d2 - d1) / ((2.0 + d1) * (2.0 + d2)) > 1e-12:
            assert u1 < u2


@pytest.mark.parametrize("delta", [0.0, 0.25, 1.0, 7.0, 1e6])
def test_kernel_row_is_a_distribution(delta):
    p = StickinessParam(delta)
    probs = (p.u / 4, p.u / 4, (2 - p.u) / 4, (2 - p.u) / 4)
    assert all(0.0 <= q <= 0.5 for q in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-15)
    assert p.u_minus_one == pytest.approx(p.u - 1.0, abs=1e-15)
    assert p.two_minus_u == pytest.approx(2.0 - p.u, abs=1e-15)


def test_walkstate_parity_guard():
    WalkState(1, -1, 1)
    WalkState(-2, 4, 2)
    with pytest.raises(ValueError):
        WalkState(1, 0, 1)
    with pytest.raises(ValueError):
        WalkState(0, 0, 1)


def test_step_hits_each_kernel_interval_exactly():
    p = StickinessParam(2.0)  # u = 1.5: diagonal thresholds 0.375, 0.75, 0.875
    start = WalkState(0, 0, 0)
    assert step(start, p, FakeRNG([0.1])) == WalkState(1, 1, 1)
    assert step(start, p, FakeRNG([0.5])) == WalkState(-1, -1, 1)
    assert step(start, p, FakeRNG([0.8])) == WalkState(1, -1, 1)
    assert step(start, p, FakeRNG([0.9])) == WalkState(-1, 1, 1)
    off = WalkState(2, 0, 2)  # off-diagonal: plain quarters
    assert step(off, p, FakeRNG([0.2])) == WalkState(3, 1, 3)
    assert step(off, p, FakeRNG([0.3])) == WalkState(1, -1, 3)
    assert step(off, p, FakeRNG([0.6])) == WalkState(3, -1, 3)
    assert step(off, p, FakeRNG([0.99])) == WalkState(1, 1, 3)


def test_step_absorbed_diagonal_at_u_two():
    p = StickinessParam(1e300)  # u rounds to exactly 2.0, apart-moves have weight 0
    assert p.u == 2.0
    state = WalkState(0, 0, 0)
    rng = path_rng(123, 0)
    for _ in range(200):
        state = step(state, p, rng)
        assert state.x == state.y


def test_step_one_step_law_matches_kernel():
    p = StickinessParam(2.0)
    rng = path_rng(42, 0)
    n_draws = 100_000
    hits = 0
    for _ in range(n_draws):
        if step(WalkState(0, 0, 0), p, rng) == WalkState(1, 1, 1):
            hits += 1
    want = p.u / 4  # 3/8
    band = 4.0 * math.sqrt(want * (1 - want) / n_draws)
    assert abs(hits / n_draws - want) <= band


def _assert_walk_draws_is_step(p, columns):
    # the columns as one path-major block of uniforms through the chunk's
    # classifier, transposed step-major, then _walk_draws over those classes,
    # against step() fed each column in turn
    classes = _classify(np.array(columns), _cut_ranks(p.u)[0]).T
    x, y = _walk_draws(p.u, classes)
    for i, column in enumerate(columns):
        state, rng = WalkState(0, 0, 0), FakeRNG(column)
        for _ in column:
            state = step(state, p, rng)
        assert (state.x, state.y) == (x[i], y[i]), i


@pytest.mark.parametrize("delta", [0.0, 2.0, 64.0, 1e300])
def test_walk_draws_matches_step_at_every_threshold(delta):
    # every kernel threshold, on and off the diagonal, exactly and one ulp to
    # each side; the pinned hashes cannot see a threshold shift of 1e-7.
    # Among all three-step columns of these draws some leave the diagonal,
    # some come back to it and some stay on it, so each draw meets each state.
    p = StickinessParam(delta)
    cuts = [0.25 * p.u, 0.5 * p.u, 0.25 * (2.0 + p.u), 0.25, 0.5, 0.75]
    draws = sorted({float(w) for c in cuts
                    for w in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))})
    _assert_walk_draws_is_step(p, list(itertools.product(draws, repeat=3)))


def test_walk_draws_matches_step_on_long_excursions():
    # D runs out to 130 and back to 1, where it stays, with the excursion
    # starting at every offset 0..127: any step-blocking of the walk sees D
    # far from zero at a block's start and one step from it inside a block
    away = [0.8] + [0.6] * 129  # apart +1 on the diagonal, then apart +1 off it
    back = [0.9] * 129  # apart -1 off the diagonal
    # at u = 1.5, 0.3 is "together, -1" at D = 1 but "together, +1" on the diagonal
    columns = [[0.1] * i + away + back + [0.3] * (148 - i) for i in range(128)]
    _assert_walk_draws_is_step(StickinessParam(2.0), columns)


@pytest.mark.parametrize("n", [127, 128, 32767, 32768])
def test_walk_draws_d_at_the_edges_of_its_dtype(n):
    # D is kept in the smallest signed dtype holding -n - 1: int8 up to
    # n = 127, int16 from 128, int32 from 32768.  A path that leaves the
    # diagonal and never comes back ends at D = n, the dtype's largest value
    # at n = 127 and 32767 and one past int8's or int16's at 128 and 32768
    # (u = 1.5: 0.8 is apart +1 on the diagonal, 0.6 apart +1 off it)
    _assert_walk_draws_is_step(StickinessParam(2.0), [[0.8] + [0.6] * (n - 1)])


def test_simulate_zero_steps():
    sample = simulate_endpoints(StickinessParam(3.0), 0, 17, seed=5)
    assert sample.paths == 17
    assert np.all(sample.x == 0) and np.all(sample.y == 0)


def test_simulate_huge_delta_stays_on_diagonal():
    sample = simulate_endpoints(StickinessParam(1e12), 100, 1000, seed=8)
    assert np.all(sample.x == sample.y)


def test_simulate_matches_scalar_stepper():
    p = StickinessParam(1.5)
    sample = simulate_endpoints(p, 25, 8, seed=99)
    for i in range(8):
        state = WalkState(0, 0, 0)
        rng = path_rng(99, i)
        for _ in range(25):
            state = step(state, p, rng)
        assert (state.x, state.y) == (sample.x[i], sample.y[i])


@given(
    delta=st.floats(min_value=0.0, max_value=50.0),
    n=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**63),
)
@settings(max_examples=40, deadline=None)
def test_parity_invariant(delta, n, seed):
    sample = simulate_endpoints(StickinessParam(delta), n, 16, seed=seed)
    assert np.all((sample.x - n) % 2 == 0)
    assert np.all((sample.y - n) % 2 == 0)
    assert np.all((sample.y - sample.x) % 2 == 0)


def test_marginal_mean_clt_band():
    n, paths = 1000, 100_000
    sample = simulate_endpoints(StickinessParam(1.0), n, paths, seed=31337)
    band = 4.0 * math.sqrt(n / paths)
    assert abs(float(sample.x.mean())) <= band
    assert abs(float(sample.y.mean())) <= band


def _chisquare_vs_binomial(coord, n):
    # (x + n) / 2 ~ Binomial(n, 1/2) when each marginal is a simple walk
    k = (coord + n) // 2
    counts = np.bincount(k, minlength=n + 1).astype(float)
    expected = stats.binom.pmf(np.arange(n + 1), n, 0.5) * coord.size
    # merge sparse tail bins so the chi-square approximation is valid
    keep = expected >= 10.0
    lo = np.argmax(keep)
    hi = len(expected) - np.argmax(keep[::-1])
    obs = np.concatenate([[counts[:lo].sum()], counts[lo:hi], [counts[hi:].sum()]])
    exp = np.concatenate([[expected[:lo].sum()], expected[lo:hi], [expected[hi:].sum()]])
    return stats.chisquare(obs, exp * obs.sum() / exp.sum())


@pytest.mark.parametrize("delta", [0.0, 2.0, 40.0])
def test_marginals_are_simple_walks(delta):
    n, paths = 64, 100_000
    sample = simulate_endpoints(StickinessParam(delta), n, paths, seed=2024)
    for coord in (sample.x, sample.y):
        result = _chisquare_vs_binomial(np.asarray(coord), n)
        assert result.pvalue > 0.001, f"delta={delta}: p={result.pvalue}"


def test_exchange_symmetry_statistics():
    sample = simulate_endpoints(StickinessParam(2.0), 64, 100_000, seed=7)
    above = int(np.sum(sample.x > sample.y))
    below = int(np.sum(sample.y > sample.x))
    assert abs(above - below) <= 4.0 * math.sqrt(above + below)
    diff = (sample.x - sample.y).astype(float)
    tstat = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
    assert abs(tstat) <= 4.0


def _endpoint_sha256(sample) -> str:
    digest = hashlib.sha256()
    digest.update(sample.x.astype("<i8").tobytes())
    digest.update(sample.y.astype("<i8").tobytes())
    return digest.hexdigest()


def test_endpoint_bytes_pinned():
    # one chunk of 1000 paths at delta = 2 sqrt(n): the benchmark's pinned case
    sample = simulate_endpoints(StickinessParam(64.0), 1024, 1000, seed=0)
    assert _endpoint_sha256(sample) == \
        "016e63c17bc5a984730cf911679b1578c828a4a6c2a21e4554964a6c8b261bba"


@pytest.mark.parametrize("delta, want", [
    (0.0, "5e86f179be63f1fb62b050019852172dae277933adb63d1320c9284a01850da0"),
    (2.0, "d591c2734baee1a59f63cf3c5068453c373a9a101cc647c15163ca3e55dac815"),
    (1e300, "a570394de947f12b9d899141001ea441ab9df2319c995bafb0b2af53a83f4051"),  # u = 2
    (1e308, "a570394de947f12b9d899141001ea441ab9df2319c995bafb0b2af53a83f4051"),
])
def test_endpoint_bytes_pinned_across_chunks(delta, want):
    # 9000 paths at n = 256 span three chunks (4096, 4096, 808)
    sample = simulate_endpoints(StickinessParam(delta), 256, 9000, seed=0)
    assert _endpoint_sha256(sample) == want


@pytest.mark.parametrize("n, want", [
    (1, "f45568e2209b00aa173e0272d6063d9463d2887ff4deffff8315ae499a11dd0f"),
    (33, "d931e55a4b49c6de41fca7473c762d8d81edf83631cee3795a25dd72b6a0d201"),
])
def test_endpoint_bytes_pinned_short_paths_top_seed(n, want):
    # 5000 paths span two chunks; seed 2**64 - 5 sets the top key bits
    sample = simulate_endpoints(StickinessParam(2.0), n, 5000, seed=2**64 - 5)
    assert _endpoint_sha256(sample) == want


@pytest.mark.parametrize("n", [0, 1, 33])
@pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 - 1, 2**70 + 3])
def test_chunk_draws_equal_path_streams(n, seed):
    # the re-keyed chunk stream is each path's own stream: keys masked to
    # 64 bits, counter and buffer reset per path, two blocks; each column of
    # classes counts the thresholds its path's uniforms reach
    lo, hi = 1000, 1300
    u = StickinessParam(2.0).u
    classes = _chunk_classes(u, n, seed, lo, hi)
    assert classes.shape == (n, hi - lo) and classes.dtype == np.int8
    cuts = (0.25, 0.5, 0.75, 0.25 * u, 0.5 * u, 0.25 * (2.0 + u))
    for i in range(hi - lo):
        v = path_rng(seed, lo + i).random(n)
        assert np.array_equal(classes[:, i], sum((v >= c).astype(np.int8) for c in cuts))


def test_chunk_peak_memory_is_its_draws():
    # one full chunk at n = 1024: 4096 paths of int8 classes are 4 MiB; no
    # float64 chunk array (32 MiB) and no second chunk-sized array
    n, paths = 1024, 4096
    u = StickinessParam(64.0).u
    tracemalloc.start()
    try:
        _walk_draws(u, _chunk_classes(u, n, 0, 0, paths))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * paths


def test_determinism():
    p = StickinessParam(1.0)
    a = simulate_endpoints(p, 128, 3000, seed=555)
    b = simulate_endpoints(p, 128, 3000, seed=555)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_csv_roundtrip(tmp_path):
    sample = simulate_endpoints(StickinessParam(0.5), 10, 20, seed=1)
    out = tmp_path / "sample.csv"
    sample.write_csv(out)
    text = out.read_text()
    assert text.splitlines()[0] == "path_index,x,y"
    again = EndpointSample.read_csv(out)
    assert np.array_equal(sample.x, again.x) and np.array_equal(sample.y, again.y)
    assert (again.n, again.delta, again.seed) == (10, 0.5, 1)
    # identical rerun produces identical bytes
    other = tmp_path / "sample2.csv"
    simulate_endpoints(StickinessParam(0.5), 10, 20, seed=1).write_csv(other)
    assert other.read_text() == text


@pytest.mark.parametrize("rows", [
    ["0,0,0", "1,2,0", "2,0,-2"],  # 3 of the sidecar's 5 paths
    ["0,0,0", "1,2,0", "2,0,-2", "3,4,2", "3,2,2"],  # index 3 twice, 4 never
    ["0,0,0", "1,2,0", "2,0,-2", "3,3,2", "4,2,2"],  # x = 3 has the wrong parity
    ["0,0,0", "1,2,0", "2,0,-2", "3,12,2", "4,2,2"],  # |x| > n
])
def test_read_csv_refuses_a_file_write_csv_could_not_have_written(tmp_path, rows):
    out = tmp_path / "sample.csv"
    simulate_endpoints(StickinessParam(0.5), 10, 5, seed=1).write_csv(out)
    out.write_text("\n".join(["path_index,x,y", *rows]) + "\n")
    with pytest.raises(ValueError):
        EndpointSample.read_csv(out)


@pytest.mark.parametrize("key", ["n", "paths", "delta", "seed"])
def test_read_csv_names_a_key_its_sidecar_lacks(tmp_path, key):
    out = tmp_path / "sample.csv"
    simulate_endpoints(StickinessParam(0.5), 10, 5, seed=1).write_csv(out)
    sidecar = tmp_path / "sample.csv.json"
    meta = json.loads(sidecar.read_text())
    del meta[key]
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"'{key}'"):
        EndpointSample.read_csv(out)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        simulate_endpoints(StickinessParam(1.0), 10**6, 10**5, seed=0)
    with pytest.raises(ValueError):
        simulate_endpoints(StickinessParam(1.0), 5, 0, seed=0)
    with pytest.raises(ValueError):
        simulate_endpoints(StickinessParam(1.0), -1, 5, seed=0)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError):
        simulate_endpoints(StickinessParam(1.0), 5, 4, seed=0, workers=workers)
