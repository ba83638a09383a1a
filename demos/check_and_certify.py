"""Which action distributions can information design reach?

A receiver matches a binary state: action a1 pays off in state t1, action a2
in state t2, and the prior leans 3/4 toward t1. Without any information the
receiver just plays a1. An advisor who controls what the receiver learns can
shift play toward a2, but only so far: the reachable marginals are exactly
those with nu0(a2) <= 1/2, and the checker certifies both sides of the line.
"""

from fractions import Fraction

from mbce import check_bce_consistent, make_game, make_marginal, matching_game


def fmt(values):
    return "(" + ", ".join(str(q) for q in values) + ")"


def describe(verdict):
    if verdict.consistent:
        rows = "; ".join(fmt(row) for row in verdict.witness.probs)
        return f"consistent; witness outcome {rows}"
    cert = verdict.violation
    return (
        f"inconsistent; {cert.kind} certificate, residual {cert.residual}, "
        f"direction {fmt(cert.direction)}"
    )


def main():
    game = matching_game(Fraction(3, 4))
    print("matching game, prior (3/4, 1/4)")
    for q in ["0", "1/4", "1/2", "501/1000", "3/4", "1"]:
        nu = make_marginal([f"{1 - Fraction(q)}", q])
        print(f"  nu0(a2) = {q:>8}: {describe(check_bce_consistent(game, nu))}")

    # The state and action-pair conditions above are cheap and interpretable,
    # but from three belief dimensions up they can all hold while the pair is
    # still unreachable. This four-state game is such a case: the oracle LP
    # rejects it, and the certificate search hands back a separating
    # direction outside both named families.
    game = make_game(
        ["t1", "t2", "t3", "t4"],
        ["a1", "a2", "a3", "a4"],
        [
            ["1/2", "-1/2", "-5/2", -2],
            ["7/2", -6, -3, "3/2"],
            ["1/2", -2, 2, -2],
            [6, 7, "7/4", -7],
        ],
        ["1/3", "1/3", "2/15", "1/5"],
    )
    nu = make_marginal(["3/14", "3/14", "3/14", "5/14"])
    print("\nfour-state game where every named condition holds:")
    print(f"  {describe(check_bce_consistent(game, nu))}")


if __name__ == "__main__":
    main()
