import json
import math
import warnings

import numpy as np
import pytest

import train_oracle
from predictor_oracle import surprises, variant_keep_flags
from risklab import (DegenerateError, SyntheticSpec, TickSeries,
                     ValidationError, gen_synthetic)
from risklab.predictor import (Predictor, TrainSpec, _descend, _features,
                               _initial_params, _ndtri_lower, draw_masks, eps,
                               first_layer, load_predictor, make_leaked,
                               make_noise, make_persistence, sample_variants,
                               save_predictor, surprise_series, train,
                               variant_surprise_series)

SEC = 1_000_000_000


def constant_series(n=64, bid=99.0, ask=101.0):
    ts = SEC * np.arange(1, n + 1)
    return TickSeries(ts, np.full(n, bid), np.full(n, ask))


def quotes(*bid_ask):
    """A series of the given (bid, ask) quotes, one second apart."""
    bid, ask = np.array(bid_ask, dtype=np.float64).T
    return TickSeries(SEC * np.arange(1, len(bid_ask) + 1), bid, ask)


def planted_series(n=12_000, seed=7):
    return gen_synthetic(SyntheticSpec(n_ticks=n, sigma_noise=5e-4, phi=0.9,
                                       sigma_signal=2e-4, spread_bps=1.0,
                                       seed=seed))


SPEC = TrainSpec(window=8, hidden=(16,), dropout_p=0.2, epochs=150,
                 learning_rate=0.05, l2=1e-4, seed=0)

# hidden sizes whose training at learning rate 1e5 diverges, and the epoch
DIVERGING = [((5, 7, 3), 27), ((4, 1), 29)]


def mask_stream(source, spec, rows):
    """The `masks` argument of a training that draws its keep masks
    ("drawn") or replays them from `draw_masks` ("replayed"); a net without
    dropout draws none, so it has no stream to replay."""
    if source == "drawn":
        return None
    if spec.dropout_p == 0.0:
        with pytest.raises(ValidationError, match="draws no masks"):
            draw_masks(spec, rows)
        return None
    return draw_masks(spec, rows)


class TestTrain:
    def test_constant_series_zero_loss(self):
        p = train(constant_series(), SPEC)
        assert p.final_loss <= 1e-8

    def test_constant_series_predicts_current_mid(self):
        p = train(constant_series(), SPEC)
        # a forecast within 1e-4 of the mid 100
        assert surprise_series(p, constant_series())[10] == \
            pytest.approx(0.0, abs=1e-6)

    def test_bit_identical_weights(self):
        s = planted_series(4000)
        a = train(s, SPEC)
        b = train(s, SPEC)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    # 1,993 training rows: a width that is no multiple of 8 packs its
    # masks into a last byte that is partly padding
    @pytest.mark.parametrize("hidden",
                             [(16,), (8, 4), (5, 7, 3), (1,), (4, 1), (8,)])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    @pytest.mark.parametrize("masks", ["drawn", "replayed"])
    def test_matches_the_epoch_loop_oracle_bitwise(self, hidden, dropout_p,
                                                   masks):
        s = planted_series(2000)
        spec = TrainSpec(window=6, hidden=hidden, dropout_p=dropout_p,
                         epochs=40, learning_rate=0.05, seed=3)
        weights, biases, final_loss = train_oracle.fit(s, spec)
        p = train(s, spec, masks=mask_stream(masks, spec, 1993))
        for want, got in zip(weights + biases, p.weights + p.biases,
                             strict=True):
            assert np.array_equal(want, got)
        assert p.final_loss == final_loss

    @pytest.mark.parametrize("masks", ["drawn", "replayed"])
    def test_diverging_training_raises_like_the_oracle(self, masks):
        s = planted_series(600)
        for hidden, epoch in DIVERGING:
            spec = TrainSpec(window=6, hidden=hidden, dropout_p=0.2,
                             epochs=30, learning_rate=1e5, seed=3)
            with np.errstate(all="ignore"):
                with pytest.raises(DegenerateError) as want:
                    train_oracle.fit(s, spec)
                with pytest.raises(DegenerateError) as got:
                    train(s, spec, masks=mask_stream(masks, spec, 593))
            assert str(got.value) == str(want.value) \
                == f"non-finite training loss at epoch {epoch}"

    def test_diverging_training_warns_nothing(self):
        # the descent overflows on its way to the error, which is the one
        # report; numpy's RuntimeWarnings would name no window or epoch
        s = planted_series(600)
        for hidden, epoch in DIVERGING:
            spec = TrainSpec(window=6, hidden=hidden, dropout_p=0.2,
                             epochs=30, learning_rate=1e5, seed=3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                        DegenerateError,
                        match=f"^non-finite training loss at epoch {epoch}$"):
                    train(s, spec)

    @pytest.mark.parametrize("zero", [-0.0, 0.0])
    @pytest.mark.parametrize("hidden", [(8,), (4, 1), (5, 7, 3)])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    @pytest.mark.parametrize("epochs", [1, 40])
    @pytest.mark.parametrize("masks", ["drawn", "replayed"])
    def test_descends_like_the_oracle_from_a_zero_output_weight(
            self, zero, hidden, dropout_p, epochs, masks):
        # a zero last-layer entry makes its column of grad @ W.T all zeros,
        # which einsum returns as +0.0 whatever the products' signs; after
        # one epoch the zero bias gradient it gives is still in the bytes
        spec = TrainSpec(window=6, hidden=hidden, dropout_p=dropout_p,
                         epochs=epochs, learning_rate=0.05, seed=3)
        r = np.diff(np.log(planted_series(2000).mid))
        scale = float(r[spec.window:].std())
        x = _features(r, spec.window, scale)[:-1]
        y = r[spec.window:] / scale
        sizes = (spec.window, *hidden, 1)
        start = np.random.default_rng(11)
        weights = [start.normal(0.0, 0.5, (a, b))
                   for a, b in zip(sizes[:-1], sizes[1:])]
        weights[-1][0, 0] = zero
        biases = [np.zeros(b) for b in sizes[1:]]

        def drawn_after_init():
            # where a training's masks start: past its initial weights
            rng = np.random.default_rng(spec.seed)
            _initial_params(spec, rng)
            return rng

        want_w, want_b = list(weights), list(biases)
        train_oracle.descend(x, y, want_w, want_b, spec, drawn_after_init())
        got_w, got_b = list(weights), list(biases)
        _descend(x, y, got_w, got_b, spec, drawn_after_init(),
                 mask_stream(masks, spec, x.shape[0]))
        for want, got in zip(want_w + want_b, got_w + got_b, strict=True):
            assert want.tobytes() == got.tobytes()

    def test_replays_only_the_stream_of_its_spec_and_row_count(self):
        # np.unpackbits pads a short stream with zeros without complaint,
        # so a stream of fewer rows would silently drop every unit there
        s = planted_series(2000)
        spec = TrainSpec(window=6, hidden=(5, 7, 3), dropout_p=0.3,
                         epochs=40, learning_rate=0.05, seed=3)
        stream = draw_masks(spec, 1993)
        assert [b.shape for b in stream.bits] == [(40, 1246), (40, 1744),
                                                  (40, 748)]
        assert not any(b.flags.writeable for b in stream.bits)
        for other in (draw_masks(spec, 1992), draw_masks(spec, 1994),
                      draw_masks(TrainSpec(**{**spec.__dict__, "seed": 4}),
                                 1993),
                      draw_masks(TrainSpec(**{**spec.__dict__, "epochs": 41}),
                                 1993)):
            with pytest.raises(ValidationError, match="mask stream"):
                train(s, spec, masks=other)
        with pytest.raises(ValidationError, match="mask stream"):
            train(s.window(0, 1999), spec, masks=stream)
        with pytest.raises(ValidationError, match="at least 1 row"):
            draw_masks(spec, 0)

    @pytest.mark.parametrize("rows", [1993, 15993])
    def test_einsum_forms_match_numpy_bitwise(self, rows):
        # the epoch loop's bias gradients and output-layer product rest on
        # this property of the installed numpy: einsum adds row after row,
        # as sum(axis=0) does once a row holds more than one value
        rng = np.random.default_rng(rows)
        for width in range(2, 33):
            g = rng.normal(size=(rows, width))
            assert np.einsum("ij->j", g).tobytes() \
                == g.sum(axis=0).tobytes(), width
            grad = rng.normal(size=(rows, 1))
            w = rng.normal(size=(width, 1))
            out = np.empty((rows, width))
            np.einsum("i,j->ij", grad[:, 0], w[:, 0], out=out)
            assert out.tobytes() == np.multiply(grad, w.T).tobytes(), width

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
        for bad in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="learning_rate"):
                TrainSpec(learning_rate=bad)
        for bad in (-1e-4, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="l2"):
                TrainSpec(l2=bad)

    def test_baseline_parameter_validation(self):
        for bad in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="noise scale"):
                make_noise(bad)
            with pytest.raises(ValidationError, match="noise scale"):
                Predictor(kind="noise", noise_scale=bad)
        with pytest.raises(ValidationError, match="noise seed"):
            Predictor(kind="noise", noise_scale=1e-3, noise_seed=-1)
        for bad in (0, -1):
            with pytest.raises(ValidationError, match="leak horizon"):
                Predictor(kind="leaked", horizon=bad)


class TestPredict:
    def test_persistence(self):
        s = planted_series(500)
        assert surprise_series(make_persistence(), s).tolist() == \
            surprises(make_persistence(), s)
        assert surprise_series(make_persistence(), quotes((99.0, 101.0))) \
            .tolist() == [0.0]

    def test_leaked_one_ahead(self):
        s = quotes((99.0, 101.0), (104.0, 106.0))
        got = surprise_series(make_leaked(1), s)
        assert got[0] == 105.0 / 100.0 - 1.0
        assert np.isnan(got[1])

    def test_leaked_needs_future(self):
        # two ticks hold no mid two ticks ahead
        s = quotes((99.0, 101.0), (104.0, 106.0))
        assert np.isnan(surprise_series(make_leaked(2), s)).all()

    def test_leaked_matches_oracle_exactly(self):
        s = planted_series(500)
        for h in (1, 3, 499, 500):
            got = surprise_series(make_leaked(h), s)
            want = surprises(make_leaked(h), s)
            assert np.array_equal(got, want, equal_nan=True), h

    def test_net_insufficient_history(self):
        p = train(constant_series(), SPEC)
        # a window of 8 returns needs 9 ticks; 8 ticks leave every tick NaN
        assert np.isnan(surprise_series(p, constant_series(n=8))).all()
        assert np.isnan(surprise_series(p, constant_series(n=9))).sum() == 8

    def test_noise_deterministic_per_tick(self):
        p = make_noise(1e-3, seed=5)
        s = constant_series(n=2)
        other_quotes = quotes((50.0, 52.0), (120.0, 121.0))
        a = surprise_series(p, s)
        assert np.array_equal(a, surprise_series(p, s))
        # a pure function of the timestamp: the quotes do not matter
        assert np.array_equal(a, surprise_series(p, other_quotes))
        assert a[0] != a[1]

    def test_noise_draws_are_pinned(self):
        # a change to the (seed, ts) hash or to the gaussian map shows here
        got = eps(5, SEC * np.arange(1, 6))
        want = [-0.30318183951831096, -0.7799233783785192, 1.7711333622123893,
                0.4320873708155903, 0.43924866017929787]
        assert got.tolist() == want

    def test_ndtri_port_matches_scipy_bitwise(self):
        # eps's inputs (k + 1/2) 2**-53 for random k and for the smallest k
        # (whose x = sqrt(-2 log u) reaches the x >= 8 branch), the 2,001
        # doubles around the middle/tail cut at exp(-2), and the tail swept
        # by exp(-t)
        ndtri = pytest.importorskip("scipy.special").ndtri
        rng = np.random.default_rng(2024)
        k = np.concatenate([rng.integers(0, 1 << 52, 1_000_000, dtype=np.uint64),
                            np.arange(200_000, dtype=np.uint64)])
        cut = np.array([math.exp(-2.0)]).view(np.int64) + np.arange(-1000, 1001)
        u = np.concatenate([(k + 0.5) * 2.0 ** -53, cut.view(np.float64),
                            np.exp(-np.linspace(2.0, 37.4, 100_001))])
        assert u.min() < 2.0 ** -52 and u.max() < 0.5
        assert (np.sqrt(-2.0 * np.log(u)) >= 8.0).sum() > 1000
        got, want = _ndtri_lower(u), ndtri(u)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_noise_predict_matches_series_bitwise(self):
        s = planted_series(3000)
        p = make_noise(1e-3, seed=5)
        assert surprise_series(p, s).tolist() == surprises(p, s)

    def test_noise_draws_are_standard_normal(self):
        e = eps(1, SEC * np.arange(1, 1_000_001))
        assert abs(e.mean()) < 5e-3
        assert abs(e.std() - 1.0) < 5e-3
        assert abs(np.corrcoef(e[:-1], e[1:])[0, 1]) < 5e-3
        assert np.isfinite(e).all()

    def test_dropout_off_at_inference(self):
        s = planted_series(4000)
        p = train(s, SPEC)
        got = surprise_series(p, s)
        assert np.array_equal(got, surprise_series(p, s), equal_nan=True)
        # the oracle's net applies no mask at all
        assert got[20:40] == pytest.approx(surprises(p, s.window(0, 40))[20:],
                                           abs=1e-15)


class TestSurprise:
    def test_persistence_identically_zero(self):
        s = planted_series(3000)
        assert np.array_equal(surprise_series(make_persistence(), s),
                              np.zeros(len(s)))

    def test_leaked_arithmetic(self):
        s = quotes((99.0, 101.0), (100.0, 102.0))
        assert surprise_series(make_leaked(1), s)[0] == \
            pytest.approx(0.01, abs=1e-15)

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
        want = surprises(p, s)
        assert np.isnan(sp[:8]).all() and np.isnan(want[:8]).all()
        assert sp[8:] == pytest.approx(want[8:], abs=1e-15)

    def test_two_hidden_layers_match_oracle(self):
        s = planted_series(300)
        p = train(s, TrainSpec(**{**SPEC.__dict__, "window": 5,
                                  "hidden": (6, 4), "epochs": 30}))
        assert surprise_series(p, s)[5:] == \
            pytest.approx(surprises(p, s)[5:], abs=1e-15)


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
        spreads = []
        for K in (8, 32, 128):
            means = []
            for seed in range(10):
                vs = sample_variants(p, K, seed=seed)
                means.append(np.mean([variant_surprise_series(vs, k, s)[100]
                                      for k in range(K)]))
            spreads.append(max(means) - min(means))
        assert spreads[0] > spreads[1] > spreads[2]

    def test_variants_match_oracle(self):
        s = planted_series(300)
        for hidden in ((16,), (6, 4)):
            p = train(s, TrainSpec(**{**SPEC.__dict__, "hidden": hidden,
                                      "epochs": 30}))
            vs = sample_variants(p, K=4, seed=11)
            dropped = 0
            for k in range(vs.K):
                keep = variant_keep_flags(vs, k)
                dropped += sum(hidden) - sum(map(sum, keep))
                got = variant_surprise_series(vs, k, s)
                want = surprises(p, s, keep)
                assert np.isnan(got[:8]).all() and np.isnan(want[:8]).all()
                assert got[8:] == pytest.approx(want[8:], abs=1e-15), \
                    (hidden, k)
            assert dropped > 0, hidden

    def test_variants_without_dropout_match_the_base_oracle(self):
        s = planted_series(300)
        p = train(s, TrainSpec(**{**SPEC.__dict__, "dropout_p": 0.0,
                                  "epochs": 30}))
        got = variant_surprise_series(sample_variants(p, K=1, seed=3), 0, s)
        assert got[8:] == pytest.approx(surprises(p, s)[8:], abs=1e-15)

    @pytest.mark.parametrize("hidden", [(16,), (6, 4)])
    def test_shared_first_layer_matches_alone_and_oracle(self, hidden):
        s = planted_series(300)
        p = train(s, TrainSpec(**{**SPEC.__dict__, "hidden": hidden,
                                  "epochs": 30}))
        vs = sample_variants(p, K=3, seed=5)
        first = first_layer(p, s)
        assert first.shape == (len(s) - 8, hidden[0])
        assert not first.flags.writeable
        for k in range(vs.K):
            shared = variant_surprise_series(vs, k, s, first)
            assert np.array_equal(shared, variant_surprise_series(vs, k, s),
                                  equal_nan=True), (hidden, k)
            want = surprises(p, s, variant_keep_flags(vs, k))
            assert shared[8:] == pytest.approx(want[8:], abs=1e-15)

    def test_shared_first_layer_of_another_series_is_rejected(self):
        s = planted_series(300)
        vs = sample_variants(train(s, SPEC), K=2, seed=5)
        first = first_layer(vs.base, s.window(0, 200))
        with pytest.raises(ValidationError, match="first layer"):
            variant_surprise_series(vs, 0, s, first)

    def test_first_layer_needs_a_forecast(self):
        s = planted_series(300)
        assert first_layer(make_persistence(), s) is None
        assert first_layer(train(s, SPEC), s.window(0, 8)) is None

    @pytest.mark.parametrize("kind", ["net", "net-no-dropout", "persistence",
                                      "leaked", "noise"])
    def test_variant_index_outside_the_set_is_rejected(self, kind):
        s = planted_series(300)
        if kind.startswith("net"):
            dropout = 0.0 if kind == "net-no-dropout" else 0.2
            p = train(s, TrainSpec(**{**SPEC.__dict__, "dropout_p": dropout,
                                      "epochs": 5}))
        else:
            p = {"persistence": make_persistence(), "leaked": make_leaked(2),
                 "noise": make_noise(1e-4, seed=1)}[kind]
        vs = sample_variants(p, K=3 if kind == "net" else 1, seed=0)
        variant_surprise_series(vs, vs.K - 1, s)
        for k in (-1, vs.K):
            with pytest.raises(ValidationError, match="variant index"):
                variant_surprise_series(vs, k, s)


GOLDEN_NET_DOCUMENT = """\
{
  "kind": "dropout-net",
  "scale": 1.0,
  "horizon": 1,
  "noise_scale": 0.0,
  "noise_seed": 0,
  "final_loss": 0.0625,
  "train_spec": {
    "window": 2,
    "hidden": [
      2
    ],
    "dropout_p": 0.25,
    "epochs": 3,
    "learning_rate": 0.5,
    "l2": 0.0,
    "seed": 7
  },
  "weights": [
    [
      0.5,
      -0.25,
      1.0,
      0.125
    ],
    [
      2.0,
      -1.5
    ]
  ],
  "weight_shapes": [
    [
      2,
      2
    ],
    [
      2,
      1
    ]
  ],
  "biases": [
    [
      0.0,
      0.25
    ],
    [
      -0.5
    ]
  ]
}
"""


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

    def test_document_bytes_are_pinned(self, tmp_path):
        # key order and number formatting of a hand-built net's document
        p = Predictor(kind="dropout-net",
                      train_spec=TrainSpec(window=2, hidden=(2,),
                                           dropout_p=0.25, epochs=3,
                                           learning_rate=0.5, l2=0.0, seed=7),
                      weights=(np.array([[0.5, -0.25], [1.0, 0.125]]),
                               np.array([[2.0], [-1.5]])),
                      biases=(np.array([0.0, 0.25]), np.array([-0.5])),
                      final_loss=0.0625)
        f = tmp_path / "net.json"
        save_predictor(p, f)
        assert f.read_text(encoding="utf-8") == GOLDEN_NET_DOCUMENT

    def test_malformed_document(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"kind": "dropout-net"}')
        with pytest.raises(ValidationError, match="malformed predictor"):
            load_predictor(f)

    def test_broken_documents_are_malformed(self, tmp_path):
        f = tmp_path / "p.json"
        save_predictor(train(planted_series(200), SPEC), f)
        good = json.loads(f.read_text())
        broken = [{**good, "weights": [w[:-1] for w in good["weights"]]},
                  {**good, "weight_shapes": good["weight_shapes"][:-1]},
                  {**good, "noise_scale": float("nan")},
                  {**good, "scale": float("nan")}, {**good, "scale": 0.0},
                  {**good, "noise_seed": -1}, {**good, "horizon": 0},
                  {**good, "weight_shapes": [s[::-1]
                                             for s in good["weight_shapes"]]},
                  {**good, "biases": [b[:-1] for b in good["biases"]]},
                  {**good, "train_spec": None}]
        for text in ("{", *map(json.dumps, broken)):
            f.write_text(text)
            with pytest.raises(ValidationError, match="malformed predictor"):
                load_predictor(f)
        f.write_bytes(b'{"kind": "\xff"}')
        with pytest.raises(ValidationError, match="malformed predictor"):
            load_predictor(f)
