"""Measurement-based quantum optimal control at desk scale.

Six modules: `operators` (the dense operator kernel), `belavkin` (the
Belavkin filter and ensemble simulator), `hjb_bloch` (the qubit HJB value
grid and costate lookup), `pontryagin` (Pontryagin/FBSDE verification and
grid feedback), `moments` (the Heisenberg-picture linear Gaussian moment
filter) and `io` (deterministic CSV and key-value writers).  `errors` holds
the shared exception types.
"""

__version__ = "0.1.0"
