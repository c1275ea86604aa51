"""Walk through the basic objects: build a small two-state game, pick a
strategy profile, and read off discounted values and one-shot deviations.

Run from the repository root:

    python3 demos/01_evaluate_a_game.py
"""

from sgcert.game import (
    uniform_profile,
    validate_game,
    validate_profile,
    value_function,
)
from sgcert.oracles import deviation_value

# One controller, two states, two actions.  Action 0 keeps us in the current
# state, action 1 hops to the other one.  State 1 pays better.
transition = [
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
]
rewards = [[[0.2, 0.2], [1.0, 1.0]]]
game = validate_game(
    states=["low", "high"],
    actions=[["stay", "hop"]],
    transition=transition,
    rewards=rewards,
    gamma=0.9,
)

print(f"players={game.num_players}  states={game.num_states}  "
      f"gamma={game.gamma}  r_max={game.r_max}")

pi = uniform_profile(game)
v = value_function(game, pi, 0)
print("\nuniform play:")
for s, name in enumerate(game.states):
    print(f"  V({name}) = {v[s]:.4f}")

# The best stationary plan just sits in the high state, so its value is the
# geometric series 1 / (1 - gamma) = 10.
sit = validate_profile(game, [[[1.0, 0.0], [1.0, 0.0]]])
v_sit = value_function(game, sit, 0)
print("\nalways stay:")
for s, name in enumerate(game.states):
    print(f"  V({name}) = {v_sit[s]:.4f}")

# Deviation values answer "what if I switched my first move in state s to a,
# then resumed the old plan".  In the low state, hopping once is better.
print("\none-shot deviations from 'always stay', low state:")
for a, label in enumerate(game.actions[0]):
    dv = deviation_value(game, sit, 0, 0, a)
    print(f"  first move {label!r}: {dv:.4f}")

better = deviation_value(game, sit, 0, 0, 1) - v_sit[0]
print(f"\nhopping first gains {better:.4f}, so 'always stay' is not optimal "
      "from the low state.")
assert better > 0
