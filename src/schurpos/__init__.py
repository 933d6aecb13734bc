"""Mixed discriminants, positive-map scaling, and Chern/Schur form positivity.

Desk-scale numerical machinery for cross-validating the positivity of the
double mixed discriminant of positive linear maps and of the characteristic
forms of Griffiths positive curvature data.
"""

__version__ = "0.1.0"
