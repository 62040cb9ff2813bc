"""Design and evaluation of two-stage fast-track registration studies.

Subpackage map:

- :mod:`fasttrack.numerics`     normal special functions, quadrature, roots
- :mod:`fasttrack.design`       scenario parameters and closed-form bounds
- :mod:`fasttrack.cef`          conditional error functions and calibration
- :mod:`fasttrack.power`        the design type, stage-two rule, power
                                integrals, floor solver
- :mod:`fasttrack.combination`  apply-or-waive combination strategy
- :mod:`fasttrack.montecarlo`   simulation oracle
- :mod:`fasttrack.cli`          command-line interface
"""

from .design import DesignParams, DerivedDesign, ExampleCost, derive

__all__ = ["DesignParams", "DerivedDesign", "ExampleCost", "derive"]

__version__ = "0.1.0"
