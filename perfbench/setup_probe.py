"""Time one benchmark set-up in a fresh interpreter: import riskfuse, then
generate each planted cohort into a directory and load it back.

usage: setup_probe.py <latent|raw> <n_records> <out_dir> <seed> [<seed> ...]
Prints the elapsed wall seconds as its last line.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from riskfuse import datagen, storage  # noqa: E402

mode, n_records, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
for seed in map(int, sys.argv[4:]):
    cfg = datagen.planted_profile(n_records=n_records, seed=seed, mode=mode)
    datagen.generate(cfg, out_dir / str(seed))
    storage.load_dataset(out_dir / str(seed))
print(time.perf_counter() - start)
