"""Record perfbench/reference.json, the predict confidences every benchmark
run checks its own against, from the riskfuse source of this checkout.

usage (from the checkout root): python3 perfbench/write_reference.py
"""

import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))
import bench  # noqa: E402

bench.write_reference()
print(f"wrote {bench.REFERENCE}")
