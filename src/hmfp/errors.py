"""Exception types shared by the solvers and the command-line front end."""


class ConvergenceError(RuntimeError):
    """An iterative solve ran out of iterations before meeting its tolerance."""


class SolverAbort(RuntimeError):
    """A time integration or ODE march could not go on and stopped."""


class ConfigError(ValueError):
    """A configuration file or command line argument failed validation."""
