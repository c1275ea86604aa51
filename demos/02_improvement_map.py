"""The improvement map nudges every player toward profitable one-shot
deviations.  Its fixed points are exactly the stationary equilibria, and the
distance a profile moves (the residual) measures how far from equilibrium it
is.

    python3 demos/02_improvement_map.py
"""

from pathlib import Path

from sgcert.game import StrategyProfile, load_game, validate_profile
from sgcert.nash_map import apply_f, gain_table, group_stacks, per_player, residual
from sgcert.oracles import max_norm_distance

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

# A single agent choosing between a good arm (reward 1) and a bad arm
# (reward 0).  Start with an even split.
bandit = load_game(CORPUS / "two_arm_bandit.game.json")
pi = validate_profile(bandit, [[[0.5, 0.5]]])

gains = gain_table(bandit, pi)
print("gains at the even split:", gains[0][0])

# One map step gives the next profile and the residual of this one.  The
# map takes and returns one stack of strategies per group of players with
# the same number of actions; per_player splits the stacks back.
for step in range(12):
    nxt, res = apply_f(bandit, group_stacks(bandit, pi.probs))
    print(f"step {step:2d}  p(good arm) = {pi.probs[0][0, 0]:.6f}  "
          f"residual = {float(res):.2e}")
    pi = StrategyProfile(per_player(bandit, nxt))

# The map drifts toward the pure optimum.  Convergence is slow near the
# boundary, which is why the solver in the command-line tool damps and
# iterates rather than expecting a one-shot answer.

# At an equilibrium nothing moves at all.
mp = load_game(CORPUS / "matching_pennies.game.json")
uniform = validate_profile(mp, [[[0.5, 0.5]], [[0.5, 0.5]]])
print("\nmatching pennies, both uniform:")
print("  residual =", residual(mp, uniform))
out = StrategyProfile(per_player(mp, apply_f(mp, group_stacks(mp, uniform.probs))[0]))
assert max_norm_distance(out, uniform) == 0.0
print("  the improvement map leaves the equilibrium fixed")
