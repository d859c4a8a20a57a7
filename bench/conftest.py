import sys
from pathlib import Path

# The benchmark modules import nkshed from the repository's sources.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
