import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import use_repo_sources  # noqa: E402

use_repo_sources()
