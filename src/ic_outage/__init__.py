"""Outage-level bounds for two-user interference channels with gradual data
arrival, plus a Monte Carlo simulator of the underlying block transmission
scheme.

The public names are those of each module's ``__all__``, re-exported here."""

from . import analysis, channel, simulator
from .analysis import *
from .channel import *
from .simulator import *

__all__ = [*channel.__all__, *analysis.__all__, *simulator.__all__]

__version__ = "0.1.0"
