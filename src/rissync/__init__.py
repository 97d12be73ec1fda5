"""Timing-offset and cascaded-channel estimation for multi-surface reflected
links, with downstream cooperative reflection design.

Each module's ``__all__`` declares its public names; the package re-exports
all of them."""
from . import channel, config, crlb, design, errors, estimator, harness, pulse

# Built before the star imports: ``from .crlb import *`` rebinds ``crlb`` here
# from the submodule to the function of that name.
__all__ = []
__all__ += channel.__all__
__all__ += config.__all__
__all__ += crlb.__all__
__all__ += design.__all__
__all__ += errors.__all__
__all__ += estimator.__all__
__all__ += harness.__all__
__all__ += pulse.__all__

from .channel import *  # noqa: E402,F401,F403
from .config import *  # noqa: E402,F401,F403
from .crlb import *  # noqa: E402,F401,F403
from .design import *  # noqa: E402,F401,F403
from .errors import *  # noqa: E402,F401,F403
from .estimator import *  # noqa: E402,F401,F403
from .harness import *  # noqa: E402,F401,F403
from .pulse import *  # noqa: E402,F401,F403
