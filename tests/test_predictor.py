import numpy as np
import pytest

from risklab import SyntheticSpec, TickSeries, ValidationError, gen_synthetic
from risklab.predictor import (TrainSpec, eps, load_predictor, make_leaked,
                               make_noise, make_persistence, predict,
                               predict_variant, sample_variants,
                               save_predictor, surprise, surprise_series,
                               train, variant_surprise_series)

SEC = 1_000_000_000


def constant_series(n=64, bid=99.0, ask=101.0):
    ts = SEC * np.arange(1, n + 1)
    return TickSeries("C", SEC, ts, np.full(n, bid), np.full(n, ask))


def planted_series(n=12_000, seed=7):
    return gen_synthetic(SyntheticSpec(n_ticks=n, sigma_noise=5e-4, phi=0.9,
                                       sigma_signal=2e-4, spread_bps=1.0,
                                       seed=seed))


SPEC = TrainSpec(window=8, hidden=(16,), dropout_p=0.2, epochs=150,
                 learning_rate=0.05, l2=1e-4, seed=0)


class TestTrain:
    def test_constant_series_zero_loss(self):
        p = train(constant_series(), SPEC)
        assert p.final_loss <= 1e-8

    def test_constant_series_predicts_current_mid(self):
        p = train(constant_series(), SPEC)
        hist = constant_series().ticks()[:10]
        now = constant_series().tick(10)
        assert predict(p, hist, now) == pytest.approx(100.0, abs=1e-4)

    def test_bit_identical_weights(self):
        s = planted_series(4000)
        a = train(s, SPEC)
        b = train(s, SPEC)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_seed_changes_weights(self):
        s = planted_series(4000)
        a = train(s, SPEC)
        b = train(s, TrainSpec(**{**SPEC.__dict__, "seed": 1}))
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_out_of_sample_beats_persistence(self):
        s = planted_series()
        p = train(s.window(0, 8000), SPEC)
        ev = s.window(8000, 12_000)
        r = np.diff(np.log(ev.mid))
        pred = np.log1p(surprise_series(p, ev)[:-1])
        valid = ~np.isnan(pred)
        assert np.mean((pred[valid] - r[valid]) ** 2) < np.mean(r[valid] ** 2)

    def test_series_too_short(self):
        with pytest.raises(ValidationError, match="too short"):
            train(constant_series(n=9), SPEC)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            TrainSpec(window=0)
        with pytest.raises(ValidationError):
            TrainSpec(dropout_p=1.0)
        with pytest.raises(ValidationError):
            TrainSpec(epochs=0)
        with pytest.raises(ValidationError):
            TrainSpec(hidden=())


class TestPredict:
    def test_persistence(self):
        from risklab import BboTick
        now = BboTick(SEC, 99.0, 101.0)
        assert predict(make_persistence(), [], now) == 100.0

    def test_leaked_one_ahead(self):
        from risklab import BboTick
        now = BboTick(SEC, 99.0, 101.0)
        future = [BboTick(2 * SEC, 104.0, 106.0)]
        assert predict(make_leaked(1), [], now, future) == 105.0

    def test_leaked_needs_future(self):
        from risklab import BboTick
        now = BboTick(SEC, 99.0, 101.0)
        with pytest.raises(ValidationError, match="future"):
            predict(make_leaked(2), [], now, [BboTick(2 * SEC, 104.0, 106.0)])

    def test_net_insufficient_history(self):
        p = train(constant_series(), SPEC)
        s = constant_series()
        with pytest.raises(ValidationError, match="insufficient history"):
            predict(p, s.ticks()[:3], s.tick(3))

    def test_noise_deterministic_per_tick(self):
        from risklab import BboTick
        p = make_noise(1e-3, seed=5)
        now = BboTick(SEC, 99.0, 101.0)
        assert predict(p, [], now) == predict(p, [], now)
        other = BboTick(2 * SEC, 99.0, 101.0)
        assert predict(p, [], now) != predict(p, [], other)

    def test_noise_draws_are_pinned(self):
        # a change to the (seed, ts) hash or to the gaussian map shows here
        got = eps(5, SEC * np.arange(1, 6))
        want = [-0.30318183951831096, -0.7799233783785192, 1.7711333622123893,
                0.4320873708155903, 0.43924866017929787]
        assert got.tolist() == pytest.approx(want, rel=1e-12)

    def test_noise_predict_matches_series_bitwise(self):
        s = planted_series(3000)
        p = make_noise(1e-3, seed=5)
        sp = surprise_series(p, s)
        for i in range(len(s)):
            now = s.tick(i)
            assert predict(p, [], now) == now.mid * (1.0 + sp[i]), i

    def test_noise_draws_are_standard_normal(self):
        e = eps(1, SEC * np.arange(1, 1_000_001))
        assert abs(e.mean()) < 5e-3
        assert abs(e.std() - 1.0) < 5e-3
        assert abs(np.corrcoef(e[:-1], e[1:])[0, 1]) < 5e-3
        assert np.isfinite(e).all()

    def test_dropout_off_at_inference(self):
        s = planted_series(4000)
        p = train(s, SPEC)
        hist = s.ticks()[:20]
        now = s.tick(20)
        assert predict(p, hist, now) == predict(p, hist, now)


class TestSurprise:
    def test_persistence_identically_zero(self):
        s = planted_series(3000)
        assert np.array_equal(surprise_series(make_persistence(), s),
                              np.zeros(len(s)))

    def test_leaked_arithmetic(self):
        from risklab import BboTick
        now = BboTick(SEC, 99.0, 101.0)
        future = [BboTick(2 * SEC, 100.0, 102.0)]
        assert surprise(make_leaked(1), [], now, future) == pytest.approx(0.01, abs=1e-15)

    def test_leaked_series_tail_nan(self):
        s = planted_series(100)
        sp = surprise_series(make_leaked(3), s)
        assert np.isnan(sp[-3:]).all()
        assert np.isfinite(sp[:-3]).all()

    def test_net_head_nan_and_nonzero_variance(self):
        s = planted_series(4000)
        p = train(s, SPEC)
        sp = surprise_series(p, s)
        assert np.isnan(sp[:SPEC.window]).all()
        assert np.nanvar(sp) > 0

    def test_batch_matches_single_tick(self):
        s = planted_series(300)
        p = train(s, SPEC)
        sp = surprise_series(p, s)
        for t in (8, 57, 200):
            one = surprise(p, s.ticks()[t - 8:t], s.tick(t))
            assert sp[t] == pytest.approx(one, abs=1e-15)


class TestVariants:
    def test_no_dropout_no_variants(self):
        s = planted_series(2000)
        p = train(s, TrainSpec(**{**SPEC.__dict__, "dropout_p": 0.0}))
        with pytest.raises(ValidationError, match="no dropout available"):
            sample_variants(p, K=5, seed=0)

    def test_k1_on_persistence_equals_base(self):
        s = planted_series(500)
        vs = sample_variants(make_persistence(), K=1, seed=0)
        assert np.array_equal(variant_surprise_series(vs, 0, s),
                              surprise_series(make_persistence(), s))

    def test_variants_deterministic_and_distinct(self):
        s = planted_series(3000)
        p = train(s, SPEC)
        vs = sample_variants(p, K=4, seed=11)
        a = variant_surprise_series(vs, 0, s)
        b = variant_surprise_series(vs, 0, s)
        c = variant_surprise_series(vs, 1, s)
        assert np.array_equal(a, b, equal_nan=True)
        assert not np.array_equal(a, c, equal_nan=True)

    def test_same_seed_same_mask_seeds(self):
        s = planted_series(2000)
        p = train(s, SPEC)
        assert sample_variants(p, 8, seed=3).mask_seeds == \
            sample_variants(p, 8, seed=3).mask_seeds
        assert sample_variants(p, 8, seed=3).mask_seeds != \
            sample_variants(p, 8, seed=4).mask_seeds

    def test_variant_mean_concentrates_with_k(self):
        s = planted_series(3000)
        p = train(s, TrainSpec(**{**SPEC.__dict__, "dropout_p": 0.3}))
        hist = s.ticks()[100 - 8:100]
        now = s.tick(100)
        spreads = []
        for K in (8, 32, 128):
            means = []
            for seed in range(10):
                vs = sample_variants(p, K, seed=seed)
                means.append(np.mean([predict_variant(vs, k, hist, now)
                                      for k in range(K)]))
            spreads.append(max(means) - min(means))
        assert spreads[0] > spreads[1] > spreads[2]

    def test_remask_differs_from_frozen(self):
        s = planted_series(2000)
        p = train(s, SPEC)
        frozen = sample_variants(p, K=2, seed=5)
        remask = sample_variants(p, K=2, seed=5, remask_per_tick=True)
        a = variant_surprise_series(frozen, 0, s)
        b = variant_surprise_series(remask, 0, s)
        assert not np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(b, variant_surprise_series(remask, 0, s),
                              equal_nan=True)

    def test_remask_single_tick_rejected(self):
        s = planted_series(2000)
        p = train(s, SPEC)
        vs = sample_variants(p, K=2, seed=5, remask_per_tick=True)
        with pytest.raises(ValidationError, match="batch-only"):
            predict_variant(vs, 0, s.ticks()[:8], s.tick(8))


class TestSaveLoad:
    def test_net_round_trip(self, tmp_path):
        s = planted_series(3000)
        p = train(s, SPEC)
        f = tmp_path / "net.json"
        save_predictor(p, f)
        q = load_predictor(f)
        assert q.kind == p.kind
        assert q.train_spec == p.train_spec
        assert np.array_equal(surprise_series(q, s), surprise_series(p, s),
                              equal_nan=True)

    def test_baseline_round_trip(self, tmp_path):
        s = planted_series(200)
        for p in (make_persistence(), make_leaked(3), make_noise(1e-3, seed=9)):
            f = tmp_path / "p.json"
            save_predictor(p, f)
            q = load_predictor(f)
            assert np.array_equal(surprise_series(q, s), surprise_series(p, s),
                                  equal_nan=True)

    def test_malformed_document(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"kind": "dropout-net"}')
        with pytest.raises(ValidationError, match="malformed predictor"):
            load_predictor(f)
