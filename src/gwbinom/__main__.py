import gc
import sys

from .cli import main

# The start-up objects (modules, classes, functions) live as long as the
# process; frozen, no later collection walks them.
gc.freeze()
sys.exit(main())
