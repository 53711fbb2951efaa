import gc
import sys

from .cli import main

# A run is one short command, so the cyclic collector stays off; the start-up
# objects are frozen first, so the collection at interpreter exit skips them.
gc.freeze()
gc.disable()
sys.exit(main())
