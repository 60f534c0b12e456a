"""Birkhoff-average convergence rates over torus translations and skew
products: continued-fraction arithmetic, summability-kernel approximation,
high-precision orbit sums, theoretical rate envelopes and the lacunary
lower-bound constructions, with an experiment harness tying them together.
"""

from .arithmetic import (ContinuedFraction, DecimalString, DiophantineReport,
                         Frequency, PartialQuotients, QuadraticSurd,
                         borel_bernstein_schedule, classify, dist_to_Z,
                         expand_cf, find_convergent_at_scale, golden_mean,
                         ostrowski_digits, sqrt2_minus_1)
from .dynamics import (BirkhoffResult, SystemSpec, TorusPoint, birkhoff_sum,
                       char_birkhoff_skew, exp_sum_avg_fp, iterate,
                       kernel_sum, step, sup_deviation)
from .envelopes import Envelope, fit_scale, skew_exponent, weyl_bound
from .errors import (ConfigError, DimensionTooLarge, DomainError,
                     ErgorateError, HypothesisNotMet, NotIrrational,
                     PrecisionExhausted, Timeout, Uncertified)
from .harness import (ExperimentConfig, RateSeries, emit_csv, emit_json,
                      run_kernel_experiment, run_rate_experiment,
                      run_sharpness_experiment, run_skew_experiment)
from .kernels import (Holder, Observable, TrigPoly, approximate, dirichlet,
                      fejer, make_observable)
from .scenarios import SCENARIOS, run_scenario
from .sharpness import (AnalyticWeight, HolderWeight, LacunaryObservable,
                        SharpnessReport, build_lacunary, decompose,
                        verify_Nm_bound, verify_lower_bound)

__version__ = "0.1.0"
