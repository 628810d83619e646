"""`python -m cantorapprox ARGS` runs the command line.

`cli.py` is imported here as `cantorapprox.cli`, the module the command
handlers import for the shared parse helpers, so it is loaded once.
`python -m cantorapprox.cli` still works, but runs `cli.py` a second time
as `__main__`.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
