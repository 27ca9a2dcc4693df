"""The attack result contract and the registry execution funnel.

Every attack registers an *adapter*
under the ``attack`` capability kind with the uniform signature
``(component, benches, *, seed, engine) -> dict`` and must return one
documented result shape:

.. code-block:: text

    {
      "name": "<registered attack name>",
      "applicable": true | false,
      "cost": {                      # the attack-cost model
        "oracle_queries": <int>,     # distinct activated-chip queries
        "simulated_trials": <int>,   # netlist simulations (lanes x benches)
        "iterations": <int>          # wall-bounded outer iterations
      },
      "outcome": {...},              # attack-specific JSON dict
      "reason": "..."                # required when applicable is false
    }

``cost`` is the deterministic attack-cost block the campaign schema
(``repro.campaign/5``) serializes per unit: *oracle queries* count
distinct workloads whose golden outputs the adversary observed on the
activated chip (the scarce resource the untrusted-foundry threat model
of paper §2/§3.1 denies), *simulated trials* count netlist simulations
the attacker ran on their own fab'd copy, and *iterations* bound the
outer search loop.  Wall-clock time never appears: results must stay
byte-identical across engines, process layouts and resumes.

An attack that does not apply to a component reports
``applicable: false`` with a non-empty ``reason`` (zero cost, empty
outcome) instead of raising, so one attack axis sweeps cleanly across
heterogeneous campaign cells.

:func:`run_attack` is the single execution funnel: it resolves the
name through the capability registry and validates the adapter's
return value against this contract — an attack that returns garbage
fails loudly with
:class:`AttackResultError` instead of serializing an ad-hoc dict into
campaign documents.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.registry import REGISTRY

if TYPE_CHECKING:  # type-only: repro.tao imports back into this package
    from repro.sim.testbench import Testbench
    from repro.tao.flow import ObfuscatedComponent

#: Required integer counters of the ``cost`` block, in canonical order.
COST_FIELDS: tuple[str, ...] = ("oracle_queries", "simulated_trials", "iterations")


class AttackResultError(ValueError):
    """An attack adapter returned a result violating the contract."""


def zero_cost() -> dict[str, int]:
    """A fresh all-zero cost block (inapplicable attacks spend nothing)."""
    return {field: 0 for field in COST_FIELDS}


def inapplicable(name: str, reason: str) -> dict[str, Any]:
    """The canonical result of an attack that does not apply."""
    return {
        "name": name,
        "applicable": False,
        "cost": zero_cost(),
        "outcome": {},
        "reason": reason,
    }


def validate_attack_result(name: str, result: Any) -> dict[str, Any]:
    """Check ``result`` against the attack result contract.

    Returns the result unchanged when valid; raises
    :class:`AttackResultError` naming the attack and the violation
    otherwise.  Called by :func:`run_attack` on every adapter return,
    so third-party attacks cannot serialize garbage into campaign
    documents.
    """

    def bad(detail: str) -> AttackResultError:
        return AttackResultError(
            f"attack {name!r} returned a result violating the attack "
            f"contract: {detail} (see repro.attack.contract)"
        )

    if not isinstance(result, dict):
        raise bad(f"expected a dict, got {type(result).__name__}")
    if result.get("name") != name:
        raise bad(
            f"result['name'] is {result.get('name')!r}, must echo the "
            f"registered name {name!r}"
        )
    applicable = result.get("applicable")
    if not isinstance(applicable, bool):
        raise bad(f"result['applicable'] must be a bool, got {applicable!r}")
    cost = result.get("cost")
    if not isinstance(cost, dict):
        raise bad("result['cost'] must be a dict of integer counters")
    for field in COST_FIELDS:
        value = cost.get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise bad(
                f"cost[{field!r}] must be a non-negative int, got {value!r}"
            )
    outcome = result.get("outcome")
    if not isinstance(outcome, dict):
        raise bad("result['outcome'] must be a dict")
    if not applicable:
        reason = result.get("reason")
        if not isinstance(reason, str) or not reason:
            raise bad(
                "inapplicable results must carry a non-empty 'reason' string"
            )
    try:
        json.dumps(result, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as error:
        raise bad(f"result is not JSON-serializable: {error}") from None
    return result


def attack_names() -> tuple[str, ...]:
    """Registered attack names, in registration order."""
    return REGISTRY.names("attack")


def run_attack(
    name: str,
    component: "ObfuscatedComponent",
    benches: "Sequence[Testbench]",
    *,
    seed: int = 0,
    engine: Optional[str] = None,
) -> dict[str, Any]:
    """Run the registered attack ``name`` through its uniform adapter.

    The name resolves through the capability registry; unknown names
    raise the uniform :class:`repro.registry.UnknownCapabilityError`
    listing the registered attacks.  The adapter's return value is
    validated against the result contract
    (:func:`validate_attack_result`), so every attack block a campaign
    serializes has the documented name/cost/outcome shape.
    """
    adapter = REGISTRY.get("attack", name)
    return validate_attack_result(
        name, adapter(component, benches, seed=seed, engine=engine)
    )
