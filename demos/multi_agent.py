"""Two multi-agent questions that reduce to the single-agent checker.

Public signals: when everyone sees the same signal, a profile of actions is
one big action, so profile marginals are checked in an auxiliary game whose
actions are whole profiles. Ring networks: player 1 sees a signal about the
state, each later player sees a signal about the previous player's action,
and the chain is consistent iff every stage is on its own.
"""

from mbce import (
    auxiliary_single_agent,
    check_public_bce,
    check_ring,
    construct_ring_outcome,
    make_first_order,
    make_marginal,
    make_profile,
    make_ring,
    ring_player_marginal,
)
from mbce.applications import ring_profiles
from mbce.rationals import row_fractions


def fmt(values):
    return "(" + ", ".join(str(q) for q in values) + ")"


def main():
    # two players who both want to match the state, uniform prior
    fo = make_first_order(
        ["t1", "t2"],
        ["1/2", "1/2"],
        [
            (["x1", "x2"], [[1, 0], [0, 1]]),
            (["y1", "y2"], [[1, 0], [0, 1]]),
        ],
    )
    aux = auxiliary_single_agent(fo)
    print("profiles:", aux.actions)

    # all mass on the mismatched profiles: reachable with a public coin,
    # because both mismatch profiles are optimal exactly at the centre belief
    nu = make_marginal(["0", "1/2", "1/2", "0"])
    verdict = check_public_bce(fo, nu)
    print("mismatch profiles, uniform prior:",
          "consistent" if verdict.consistent else "inconsistent")

    # a chain: player 2 wants to match player 1's action
    ring = make_ring(
        ["t1", "t2"],
        ["3/4", "1/4"],
        [
            (["a1", "a2"], [[1, 0], [0, 1]]),
            (["b1", "b2"], [[1, 0], [0, 1]]),
        ],
    )
    profile = make_profile(ring, [["1/2", "1/2"], ["1/2", "1/2"]])
    verdict = check_ring(ring, profile)
    print("\nring with halves everywhere:",
          "consistent" if verdict.consistent else "inconsistent")
    joint = construct_ring_outcome(verdict.stage_witnesses)
    print("joint law by action profile:")
    for profile, row in zip(ring_profiles(joint.shape), joint.probs):
        labels = ",".join(ring.actions[i][a] for i, a in enumerate(profile))
        print(f"  ({labels}): {fmt(row)}")
    for i in range(ring.n_players):
        print(f"player {i + 1} marginal reproduced:",
              fmt(row_fractions(ring_player_marginal(joint, i))))

    # player 2's stage inherits player 1's marginal as its prior; skewing
    # player 1 to (3/4, 1/4) leaves 7/8 on b2 with nothing to back it
    bad = make_profile(ring, [["3/4", "1/4"], ["1/8", "7/8"]])
    verdict = check_ring(ring, bad)
    print(f"\noverloaded player 2: inconsistent at stage index "
          f"{verdict.failing_stage}, {verdict.violation.kind}, "
          f"residual {verdict.violation.residual}")


if __name__ == "__main__":
    main()
