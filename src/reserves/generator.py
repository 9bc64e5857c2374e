"""Seeded random instance generation for tests, the CLI, and verification runs."""

from __future__ import annotations

import random

from .model import Instance, ValidationError, instance_from_document


def random_instance_document(agents: int, categories: int, max_quota: int = 2,
                             eligibility_density: float = 0.5, tie_prob: float = 0.0,
                             seed: int = 0, unreserved: int = 0) -> dict:
    """Deterministic random instance document.

    Each (agent, category) pair is eligible with probability
    ``eligibility_density``; eligible agents are shuffled and adjacent ones
    merge into one tier with probability ``tie_prob``. The baseline is a
    random permutation. ``unreserved > 0`` appends an unreserved category of
    that quota, every unit of which is processed last.
    """
    if agents < 0 or categories < 0 or max_quota < 1 or unreserved < 0:
        raise ValidationError("sizes must be nonnegative (max_quota at least 1)")
    if not 0.0 <= eligibility_density <= 1.0 or not 0.0 <= tie_prob <= 1.0:
        raise ValidationError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(agents)]
    baseline = names[:]
    rng.shuffle(baseline)

    cats = []
    for k in range(categories):
        eligible = [i for i in range(agents) if rng.random() < eligibility_density]
        rng.shuffle(eligible)
        tiers: list[list[str]] = []
        for i in eligible:
            if tiers and rng.random() < tie_prob:
                tiers[-1].append(names[i])
            else:
                tiers.append([names[i]])
        cats.append({
            "name": f"c{k}",
            "quota": rng.randint(1, max_quota),
            "kind": "preferential",
            "tiers": tiers,
            "cutoff": len(tiers),
        })
    doc = {"agents": names, "baseline": baseline, "categories": cats}
    if unreserved > 0:
        cats.append({"name": "u", "quota": unreserved, "kind": "unreserved"})
    return doc


def random_instance(agents: int, categories: int, max_quota: int = 2,
                    eligibility_density: float = 0.5, tie_prob: float = 0.0,
                    seed: int = 0, unreserved: int = 0) -> Instance:
    return instance_from_document(random_instance_document(
        agents, categories, max_quota, eligibility_density, tie_prob, seed, unreserved))
