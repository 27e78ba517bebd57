"""Exact reference optima for the presets the descent workload minimizes.

Each reference is derived here, independently of the optimizer, so the
benchmark can say how far a finished descent is from the true minimum:

* the empowerment and skill presets reach a capacity of ``ln 2``, so
  their engine totals (negated information bounds) bottom out at
  ``-ln 2``;
* ``free-choice`` and ``vae-toy`` can match their targets exactly, so
  their totals reach 0;
* ``chain-mdp`` is solved by soft-Bellman backward induction;
* ``bnn-toy`` has reached its optimum when the report's posterior gap
  ``posterior_kl`` is 0, which is read off the report, not the total.

``hmm-filter`` has no closed-form optimum and carries no reference.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# Presets whose engine total has a closed-form minimum.
CLOSED_FORM = {
    "bandit-infogain": -LN2,
    "dead-action": -LN2,
    "identity-channel": -LN2,
    "two-room-skills": -LN2,
    "free-choice": 0.0,
    "vae-toy": 0.0,
}

# Presets whose gap is a report extra that vanishes at the optimum.
REPORT_GAP = {"bnn-toy": "posterior_kl"}

# Presets minimized for time only.
NO_REFERENCE = ("hmm-filter",)


def soft_bellman_total(preset) -> float:
    """Optimal total of a ``chain-mdp`` preset of any size.

    Backward induction on the negated soft value W: the last action has no
    successor and costs nothing under the uniform action prior, and each
    earlier stage soft-mins the expected reward-plus-continuation of its
    actions. The total is W at the start state plus ln Z, where Z is the
    target's mass, summed forward over every trajectory.
    """
    env = np.asarray(preset.system.factors["x2"].table)
    n_states, n_actions, _ = env.shape
    reward = np.asarray(preset.options["rewards"]["x2"], dtype=np.float64)
    prior = 1.0 / n_actions
    steps = preset.horizon.steps
    start = n_states // 2

    w = np.zeros(n_states)
    for _ in range(steps - 1):
        action_cost = np.einsum("saj,j->sa", env, w - reward)
        w = -np.log(prior * np.exp(-action_cost).sum(axis=1))

    mass = np.zeros(n_states)
    mass[start] = 1.0
    for _ in range(steps - 1):
        mass = np.einsum("s,saj->j", mass, prior * env) * np.exp(reward)
    return float(w[start] + math.log(mass.sum()))


def reference_total(name: str, preset) -> float | None:
    """The exact minimum of the engine total, or None where there is none."""
    if name in CLOSED_FORM:
        return CLOSED_FORM[name]
    if name == "chain-mdp":
        return soft_bellman_total(preset)
    return None
