"""Priority-respecting rationing of indivisible units.

Agents compete for capacitated categories, each with its own weak priority
ranking and eligibility cutoff. The package provides the rejection-scan
rules (rr, srr) that return maximum-size envy-free allocations, the
classical minimum-guarantees / over-and-above reserve rules, a deferred
acceptance baseline, soft reserves, axiom checkers with witnesses, and a
brute-force oracle for small instances.
"""

from .axioms import (AxiomReport, check_eligibility, check_max_beneficiary,
                     check_max_size, check_nonwasteful, check_order_preservation,
                     check_respect_priorities, check_strategyproofness,
                     check_weak_nonbossiness)
from .generator import random_instance, random_instance_document
from .model import (EMPTY, Category, Instance, Kind, Matching, ParseError,
                    PriorityRanking, ValidationError,
                    apply_manipulation, enumerate_priority_decreases,
                    parse_instance, priority_decrease_holds, serialize_instance,
                    strictly_prefers, validate_matching)
from .oracle import (CharacterizationReport, OracleBoundError,
                     axiom_satisfying_set, enumerate_matchings, rr_outcome_set,
                     verify_characterization)
from .rules import (PreconditionError, RrTrace, deferred_acceptance, minimum_guarantees,
                    over_and_above, rr, soft_reserves, srr)

__version__ = "0.1.0"
