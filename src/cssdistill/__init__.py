"""Fault-tolerant distillation of CSS stabilizer ancilla states.

Subpackages:

* :mod:`cssdistill.gf2` -- GF(2) linear algebra: int vectors, `BitMatrix` matrices.
* :mod:`cssdistill.codes` -- classical codes and syndrome decoders.
* :mod:`cssdistill.css` -- CSS codes, ancilla specifications, residual weights.
* :mod:`cssdistill.frames` -- Pauli-frame circuits, noise, fault injection.
* :mod:`cssdistill.sampling` -- fault rows: samplers, enumerators, replay.
* :mod:`cssdistill.distill` -- the two-round distillation protocol.
* :mod:`cssdistill.montecarlo` -- parallel experiments and statistics.
* :mod:`cssdistill.cli` -- command-line entry points.
"""

__version__ = "0.1.0"
