"""From a target marginal to a concrete experiment.

Consistency says a marginal is reachable by *some* information structure;
implementation builds one from a fixed menu of posterior beliefs. The demo
walks the pipeline: posteriors -> optimal menus -> flow network -> decision
rule -> joint outcome, then shows the subset certificate you get when the
target asks a menu for more mass than it has.
"""

from fractions import Fraction

from mbce import (
    build_gale_network,
    implement_marginal,
    make_marginal,
    make_posteriors,
    matching_game,
    menu_measure,
    tau_from_outcome,
)
from mbce.errors import ImplementationInfeasible
from mbce.flows import max_flow_feasible
from mbce.implementation import decision_rule_from_flow


def fmt(values):
    return "(" + ", ".join(str(q) for q in values) + ")"


def main():
    game = matching_game(Fraction(1, 2))
    # three posteriors: certain of t1, certain of t2, and a coin flip
    tau = make_posteriors(
        [[1, 0], [0, 1], ["1/2", "1/2"]],
        ["1/4", "1/4", "1/2"],
    )
    print("posteriors:", ", ".join(fmt(mu) for mu in tau.support))
    print("weights:", fmt(tau.weights))

    scale, masses = menu_measure(tau, game)
    print("menus (optimal sets and their mass):")
    for menu in sorted(masses, key=lambda m: sorted(m)):
        print(f"  {sorted(menu)}: {Fraction(masses[menu], scale)}")

    nu = make_marginal(["3/8", "5/8"])
    outcome = implement_marginal(game, nu, tau)
    ok, flow = max_flow_feasible(build_gale_network(tau, nu, game))
    rule = decision_rule_from_flow(flow)
    print(f"\ntarget {fmt(nu.probs)} implemented")
    print("decision rule rows (one per posterior):",
          "; ".join(fmt(row) for row in rule.rows))
    print("joint outcome:", "; ".join(fmt(row) for row in outcome.probs))

    back_tau, back_rule = tau_from_outcome(outcome, game.integer_prior)
    print("reading the outcome back gives", len(back_tau.support), "posteriors")

    # the coin-flip posterior offers both actions, but the certain posteriors
    # offer only their own match: nothing can push a2 above 1/4 + 1/2
    try:
        implement_marginal(game, make_marginal(["1/8", "7/8"]), tau)
    except ImplementationInfeasible as err:
        print(f"\ntarget (1/8, 7/8) fails: subset {sorted(err.subset)}, "
              f"deficit {err.deficit}")


if __name__ == "__main__":
    main()
