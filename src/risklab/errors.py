"""Shared exception types.

ValidationError covers inputs that violate a documented precondition (bad
config values, malformed files, mismatched shapes). DegenerateError covers
numerical failures on inputs that were individually valid: fits with no
usable spread, non-finite training losses or forecasts, sweeps where
nothing trades. The CLI maps them to distinct exit codes.
"""


class ValidationError(ValueError):
    pass


class DegenerateError(ArithmeticError):
    pass
