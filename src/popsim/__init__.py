"""popsim: population-protocol simulation, influence tracking, exact analysis.

Each public name is imported from the module that defines it (``popsim.core``,
``popsim.rng``, ...); ``import popsim`` loads none of them, and each command
loads only the ones it runs.
"""

__version__ = "0.1.0"
