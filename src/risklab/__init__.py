"""risklab: a deterministic tick-level risk laboratory.

Generates synthetic best bid/offer series with a planted autoregressive
signal, trains small dropout networks to trade them, backtests strategy
config sweeps, splits uncertainty into a dropout-resolvable part and a
priced remainder, and regresses excess return on priced risk to estimate
the slope of the risk-return line a pretrained signal family traces out.
Every run is seed-deterministic down to the output bytes.
"""

# numpy imports numpy.random on first use; import it with risklab so the
# first seeded call inside a command does not pay for it
import numpy.random  # noqa: F401

from .analysis import (CorrelationCurve, SweepSpec,
                       surprise_return_correlation, sweep, sweep_configs)
from .backtest import (BacktestResult, Fill, StrategyConfig, annualized_sharpe,
                       run_backtest, run_backtest_columns,
                       run_backtest_signals, sharpe)
from .capm import (AssetUniverse, CapmDecomposition, Portfolio, beta, cml,
                   min_variance_portfolio, tangency_portfolio)
from .errors import DegenerateError, ValidationError
from .market_data import (SyntheticSpec, TickSeries, gen_synthetic, load_csv,
                          write_csv)
from .pml import (PmlFit, RiskReturnPoint, RollingPmlResult, fit_pml,
                  load_points_csv, priced_point, rolling_pml, trend_tau)
from .predictor import (Predictor, TrainSpec, VariantSet, load_predictor,
                        make_leaked, make_noise, make_persistence,
                        sample_variants, save_predictor, surprise_series,
                        train, variant_surprise_series)
from .uncertainty import McEstimate, estimate_from_matrix

__version__ = "0.1.0"

__all__ = [
    "AssetUniverse", "BacktestResult", "CapmDecomposition",
    "CorrelationCurve", "DegenerateError", "Fill", "McEstimate", "PmlFit",
    "Portfolio", "Predictor", "RiskReturnPoint", "RollingPmlResult",
    "StrategyConfig", "SweepSpec", "SyntheticSpec", "TickSeries", "TrainSpec",
    "ValidationError", "VariantSet", "annualized_sharpe", "beta", "cml",
    "estimate_from_matrix", "fit_pml", "gen_synthetic", "load_csv",
    "load_points_csv", "load_predictor", "make_leaked", "make_noise",
    "make_persistence", "min_variance_portfolio", "priced_point",
    "rolling_pml", "run_backtest", "run_backtest_columns",
    "run_backtest_signals", "sample_variants", "save_predictor", "sharpe",
    "surprise_return_correlation", "surprise_series", "sweep",
    "sweep_configs", "tangency_portfolio", "train", "trend_tau",
    "variant_surprise_series", "write_csv", "__version__",
]
