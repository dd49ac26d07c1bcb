"""Experiment drivers: one module per figure of the paper's evaluation.

Each driver exposes a frozen ``*Config`` dataclass (defaults match the
paper's setup) and a ``run_*`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose series carry the
same curves the paper plots. ``repro.experiments.report.format_result``
renders the series as a plain-text table — the benchmark harnesses print
exactly that.

Beyond the paper's figures, :mod:`repro.experiments.fleet_scale` measures
this codebase's own fleet-engine claim (many concurrent games vs
engine-free per-game loops) behind the ``fleet`` CLI command and
``benchmarks/bench_fleet.py``, and :mod:`repro.experiments.advisor_loop`
measures the closed optimization loop (:mod:`repro.advisor`) behind the
``advise`` CLI command and ``benchmarks/bench_advisor.py``.
"""

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.report import format_result, format_summary
from repro.experiments.fig1_astronomy import Fig1Config, run_fig1_astronomy
from repro.experiments.fig2_collaboration import (
    Fig2AdditiveConfig,
    Fig2SubstitutiveConfig,
    run_fig2_additive,
    run_fig2_substitutive,
)
from repro.experiments.fig3_overlap import (
    Fig3aConfig,
    Fig3bConfig,
    run_fig3a_slot_count,
    run_fig3b_duration,
)
from repro.experiments.fig4_skew import Fig4Config, run_fig4_skew
from repro.experiments.fig5_selectivity import (
    Fig5Config,
    run_fig5_selectivity,
)
from repro.experiments.fleet_scale import (
    measure_fleet_point,
    measure_gateway_point,
)
from repro.experiments.advisor_loop import (
    AdvisorLoopConfig,
    AdvisorLoopResult,
    run_advisor_loop,
)

__all__ = [
    "ExperimentResult",
    "Series",
    "format_result",
    "format_summary",
    "Fig1Config",
    "run_fig1_astronomy",
    "Fig2AdditiveConfig",
    "Fig2SubstitutiveConfig",
    "run_fig2_additive",
    "run_fig2_substitutive",
    "Fig3aConfig",
    "Fig3bConfig",
    "run_fig3a_slot_count",
    "run_fig3b_duration",
    "Fig4Config",
    "run_fig4_skew",
    "Fig5Config",
    "run_fig5_selectivity",
    "measure_fleet_point",
    "measure_gateway_point",
    "AdvisorLoopConfig",
    "AdvisorLoopResult",
    "run_advisor_loop",
]
