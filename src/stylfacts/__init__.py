"""Stylized-fact analysis of financial return series.

Tests eleven statistical regularities of asset returns on OHLCV data:
uncorrelated returns, slow decay of absolute-return autocorrelation,
intermittency, volatility clustering, leverage, volume-volatility
correlation, conditional and unconditional heavy tails, gain/loss
asymmetry, aggregational gaussianity, and time-reversal asymmetry.
Synthetic generators (GBM, OU, GARCH, GJR-GARCH) provide controls with
known behavior for every test.

Each exported name loads its submodule on first use (PEP 562), so a command
imports only the modules it runs: `simulate` never loads the fact tests.
"""

import importlib

__version__ = "0.1.0"

# Bound eagerly: importing the submodule `simulate` sets the package attribute
# of that name to the module, so a lazy binding would leave the module, not
# the function, on the package.  It also loads series, kernels and errors,
# which every command needs.
from .simulate import simulate

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("StylfactsError", "RejectedInputError", "DataQualityError",
               "DegenerateInputError", "InsufficientDataError", "NonMeanRevertingError"),
    "series": ("PriceSeries", "LogReturnSeries", "SamplingGrid", "GapReport",
               "compute_log_returns", "validate_and_gapfill", "read_csv", "write_csv"),
    "volatility": ("VolatilityWindow", "VolatilitySeries", "rolling_volatility",
                   "default_window"),
    "stats": ("AcfResult", "CcfResult", "GofTestResult", "AdfResult", "QqData", "acf",
              "autocovariance", "cross_correlation", "ks_test_normal",
              "anderson_darling_normal", "adf_test", "qq_data"),
    "fitting": ("PowerLawFit", "GarchParams", "GarchFit", "OuParams", "OuFit", "TailFit",
                "fit_power_law", "fit_garch11", "fit_ou", "fit_tail_exponent",
                "garch_filter", "gaussian_log_likelihood"),
    "simulate": ("GbmSpec", "OuSpec", "GarchSpec", "GjrSpec", "simulate"),
    "facts": ("FactId", "FactStatus", "FactVerdict", "FactConfig", "DEFAULT_CONFIG",
              "FACT_LABELS", "EXCURSION_LEVELS", "ExcursionProfile", "ZumbachResult",
              "SeriesContext", "excursion_lengths", "zumbach_statistic",
              "standardized_returns", "run_all_facts", "test_absence_autocorrelation",
              "test_slow_decay", "test_intermittency", "test_volatility_clustering",
              "test_leverage", "test_volume_volatility", "test_conditional_tail",
              "test_unconditional_tail", "test_gain_loss_asymmetry",
              "test_aggregational_gaussianity", "test_time_scale_asymmetry"),
    "report": ("RunConfig", "AssetInput", "RunResult", "ALL_FACTS", "REPORT_SCHEMA",
               "load_config", "run_analyze", "merge_reports", "asset_seed"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        # `stylfacts.stats` after a bare `import stylfacts`; the import binds
        # the submodule on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
