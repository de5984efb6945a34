"""Dynamical low-rank training: splitting integrators, rank-adaptive
truncation, and a small feed-forward network harness.

Arrays are checked for non-finite entries where they enter the package,
which raises ``linalg.NumericError``: the inputs of
``linalg.householder_qr``, ``linalg.svd_thin`` and
``lowrank.tangent_project``, the target of ``integrators.quadratic_oracle``,
and the inputs of ``nn.forward``, ``nn.backward``, ``nn.evaluate`` and
``nn.train_step``. Inside a step nothing is scanned:
``linalg.ortho_augment``, ``lowrank.truncate_state`` and
``integrators.euler_full_step`` trust the arrays a step hands them. A
non-finite value that arises in a step still raises ``NumericError``: from
the truncation, from a QR, from the forward pass's check of its output, or
from ``integrators.ode_error_study``'s check of its endpoints."""

__version__ = "0.1.0"
