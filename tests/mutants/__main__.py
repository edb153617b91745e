"""``PYTHONPATH=src python -m tests.mutants``: judge every protocol mutant."""

import sys

from tests.mutants import main

sys.exit(main())
