"""Stochastic rank-one Bernoulli bandits.

Simulation library for bandit problems whose expected-reward matrix is the
outer product of a row-mean vector and a column-mean vector.  Provides the
rank-one elimination policies (KL-UCB and Hoeffding confidence variants),
flat baselines (UCB1, round-based elimination UCB, KL-UCB), instance
generators and hardness metrics, and a seeded experiment harness with CSV
persistence.
"""

from rank1bandit.harness import (
    AggregateResult,
    ExperimentConfig,
    RegretTrace,
    default_checkpoints,
    derive_seed,
    load_config,
    read_trace_csv,
    run_many,
    run_one,
    write_trace_csv,
)
from rank1bandit.instances import (
    Environment,
    HardnessMetrics,
    Rank1Instance,
    compute_metrics,
    load_instance,
    needle_instance,
    parse_instance_spec,
    pbm_like_instance,
    save_instance,
)
from rank1bandit.klucb import (
    kl_div,
    kl_ucb_argmax,
    kl_ucb_lower,
    kl_ucb_lower_many,
    kl_ucb_upper,
    kl_ucb_upper_many,
)
from rank1bandit.policies import (
    KLUCB,
    POLICIES,
    ProtocolError,
    Rank1Elim,
    Rank1ElimKL,
    UCB1,
    UCB1Elim,
    make_policy,
)

__version__ = "0.1.0"

__all__ = [
    "kl_div",
    "kl_ucb_lower",
    "kl_ucb_upper",
    "kl_ucb_upper_many",
    "kl_ucb_lower_many",
    "kl_ucb_argmax",
    "Rank1Instance",
    "HardnessMetrics",
    "Environment",
    "needle_instance",
    "pbm_like_instance",
    "load_instance",
    "save_instance",
    "parse_instance_spec",
    "compute_metrics",
    "Rank1ElimKL",
    "Rank1Elim",
    "UCB1",
    "UCB1Elim",
    "KLUCB",
    "POLICIES",
    "make_policy",
    "ProtocolError",
    "ExperimentConfig",
    "RegretTrace",
    "AggregateResult",
    "derive_seed",
    "default_checkpoints",
    "run_one",
    "run_many",
    "write_trace_csv",
    "read_trace_csv",
    "load_config",
    "__version__",
]
