"""Stylized-fact analysis of financial return series.

Tests eleven statistical regularities of asset returns on OHLCV data:
uncorrelated returns, slow decay of absolute-return autocorrelation,
intermittency, volatility clustering, leverage, volume-volatility
correlation, conditional and unconditional heavy tails, gain/loss
asymmetry, aggregational gaussianity, and time-reversal asymmetry.
Synthetic generators (GBM, OU, GARCH, GJR-GARCH) provide controls with
known behavior for every test.
"""

__version__ = "0.1.0"

from .errors import (DataQualityError, DegenerateInputError,
                     InsufficientDataError, NonMeanRevertingError,
                     RejectedInputError, StylfactsError)
from .facts import (DEFAULT_CONFIG, EXCURSION_LEVELS, FACT_LABELS,
                    ExcursionProfile, FactConfig, FactId, FactStatus,
                    FactVerdict, SeriesContext, ZumbachResult,
                    excursion_lengths, run_all_facts, standardized_returns,
                    test_absence_autocorrelation,
                    test_aggregational_gaussianity, test_conditional_tail,
                    test_gain_loss_asymmetry, test_intermittency,
                    test_leverage, test_slow_decay,
                    test_time_scale_asymmetry, test_unconditional_tail,
                    test_volatility_clustering, test_volume_volatility,
                    zumbach_statistic)
from .fitting import (GarchFit, GarchParams, OuFit, OuParams, PowerLawFit,
                      TailFit, fit_garch11, fit_ou, fit_power_law,
                      fit_tail_exponent, garch_filter,
                      gaussian_log_likelihood)
from .report import (ALL_FACTS, REPORT_SCHEMA, AssetInput, RunConfig,
                     RunResult, asset_seed, load_config, merge_reports,
                     run_analyze)
from .series import (GapReport, LogReturnSeries, PriceSeries, SamplingGrid,
                     compute_log_returns, read_csv, validate_and_gapfill,
                     write_csv)
from .simulate import GarchSpec, GbmSpec, GjrSpec, OuSpec, simulate
from .stats import (AcfResult, AdfResult, CcfResult, GofTestResult, QqData,
                    acf, adf_test, anderson_darling_normal, autocovariance,
                    cross_correlation, ks_test_normal, qq_data)
from .volatility import (VolatilitySeries, VolatilityWindow, default_window,
                         rolling_volatility)

__all__ = [
    "__version__",
    # errors
    "StylfactsError", "RejectedInputError", "DataQualityError",
    "DegenerateInputError", "InsufficientDataError", "NonMeanRevertingError",
    # series
    "PriceSeries", "LogReturnSeries", "SamplingGrid", "GapReport",
    "compute_log_returns", "validate_and_gapfill", "read_csv", "write_csv",
    # volatility
    "VolatilityWindow", "VolatilitySeries", "rolling_volatility",
    "default_window",
    # stats
    "AcfResult", "CcfResult", "GofTestResult", "AdfResult",
    "QqData", "acf", "autocovariance", "cross_correlation",
    "ks_test_normal", "anderson_darling_normal", "adf_test", "qq_data",
    # fitting
    "PowerLawFit", "GarchParams", "GarchFit", "OuParams", "OuFit", "TailFit",
    "fit_power_law",
    "fit_garch11", "fit_ou", "fit_tail_exponent", "garch_filter",
    "gaussian_log_likelihood",
    # simulate
    "GbmSpec", "OuSpec", "GarchSpec", "GjrSpec", "simulate",
    # facts
    "FactId", "FactStatus", "FactVerdict", "FactConfig", "DEFAULT_CONFIG",
    "FACT_LABELS", "EXCURSION_LEVELS", "ExcursionProfile", "ZumbachResult",
    "SeriesContext",
    "excursion_lengths", "zumbach_statistic", "standardized_returns",
    "run_all_facts", "test_absence_autocorrelation", "test_slow_decay",
    "test_intermittency", "test_volatility_clustering", "test_leverage",
    "test_volume_volatility", "test_conditional_tail",
    "test_unconditional_tail", "test_gain_loss_asymmetry",
    "test_aggregational_gaussianity", "test_time_scale_asymmetry",
    # report
    "RunConfig", "AssetInput", "RunResult", "ALL_FACTS", "REPORT_SCHEMA",
    "load_config", "run_analyze", "merge_reports", "asset_seed",
]
