"""Configurations of the synthesis pipeline (Table 1 of the paper).

========  ==============  ===============  ================  ====================
Variant   Max iterations  # initial TRUE   # initial FALSE   # samples/iteration
========  ==============  ===============  ================  ====================
SIA       41              10               10                5
SIA_v1    1               110              110               n/a
SIA_v2    1               220              220               n/a
========  ==============  ===============  ================  ====================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

RANDOM_BOX = "random_box"
SEQUENTIAL = "sequential"  # ablation: plain NotOld enumeration


@dataclass(frozen=True)
class SiaConfig:
    """Tunables of the counter-example guided learning loop."""

    name: str = "SIA"
    max_iterations: int = 41
    initial_true_samples: int = 10
    initial_false_samples: int = 10
    samples_per_iteration: int = 5
    sample_box: int = 200
    sampling_strategy: str = RANDOM_BOX
    svm_c: float = 1e6
    max_denominator: int = 64
    seed: int = 0
    bnb_budget: int = 4000
    verify_budget: int = 800
    enumeration_limit: int = 2000
    # Proof-carrying Verify: run the validity check with proof logging
    # and accept UNSAT only after the independent certificate auditor
    # (repro.analysis.certify) replays the proof.  Off by default --
    # it roughly doubles verification work -- but recommended whenever
    # machine-discovered predicates are shipped without human review.
    certify_verify: bool = False
    # Wall-clock budget for one synthesis; None = unlimited.  Section
    # 6.2: "the optimizer may use SIA with an explicit timeout".  On
    # expiry the loop returns the best valid predicate found so far.
    timeout_ms: float | None = None

    def with_seed(self, seed: int) -> "SiaConfig":
        return replace(self, seed=seed)


SIA_DEFAULT = SiaConfig()

SIA_V1 = SiaConfig(
    name="SIA_v1",
    max_iterations=1,
    initial_true_samples=110,
    initial_false_samples=110,
    samples_per_iteration=0,
)

SIA_V2 = SiaConfig(
    name="SIA_v2",
    max_iterations=1,
    initial_true_samples=220,
    initial_false_samples=220,
    samples_per_iteration=0,
)
