"""Certifying a profile: solve each player's best-response decision problem
against the frozen opponents and compare.  The gap is the regret, and a small
fixed-point residual provably caps it.

    python3 demos/03_certification.py
"""

from pathlib import Path

import numpy as np

from sgcert.certify import best_response_values, certify_profile
from sgcert.game import load_game, validate_profile, value_function

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

mp = load_game(CORPUS / "matching_pennies.game.json")

for label, rows in [
    ("both uniform", [[[0.5, 0.5]], [[0.5, 0.5]]]),
    ("both heads", [[[1.0, 0.0]], [[1.0, 0.0]]]),
    ("slightly off", [[[0.55, 0.45]], [[0.5, 0.5]]]),
]:
    pi = validate_profile(mp, rows)
    cert = certify_profile(mp, pi)
    print(f"{label:14s} residual={cert.residual:.4f}  "
          f"worst regret={cert.epsilon_achieved:.4f}")

# The certificate also carries the theoretical cap implied by the residual.
pi = validate_profile(mp, [[[0.55, 0.45]], [[0.5, 0.5]]])
cert = certify_profile(mp, pi)
print(f"\nbound check: achieved {cert.epsilon_achieved:.4f} "
      f"<= bound {cert.epsilon_bound:.4f}")
assert cert.epsilon_achieved <= cert.epsilon_bound

# A two-state example: the pure saddle point of the zero-sum chain.
chain = load_game(CORPUS / "zero_sum_chain.game.json")
saddle = validate_profile(chain, [[[1, 0], [1, 0]], [[0, 1], [0, 1]]])
cert = certify_profile(chain, saddle, target_l=1000)
print("\nzero-sum chain saddle point:")
print("  residual        =", cert.residual)
print("  worst regret    =", cert.epsilon_achieved)
print("  verdict at 1e-3 =", cert.verdict)
for i in range(2):
    v = value_function(chain, saddle, i)
    b = best_response_values(chain, saddle, i)
    print(f"  player {i}: values {np.round(v, 6)}  best response {np.round(b, 6)}")
