"""Key rates and secure-distance limits for four-state QKD with realistic
heralded single-photon sources or weak coherent pulses."""

from . import analysis, keyrate, protocol, source_detector
from .analysis import *  # noqa: F403
from .keyrate import *  # noqa: F403
from .protocol import *  # noqa: F403
from .source_detector import *  # noqa: F403

# the package API is each module's __all__, declared there once
__all__ = (
    analysis.__all__ + keyrate.__all__ + protocol.__all__ + source_detector.__all__
)

__version__ = "0.1.0"
