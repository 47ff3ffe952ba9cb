"""Synthetic cohort generator with planted, recoverable label structure.

The cohort geometry is fixed: each stay draws a latent state z ~ N(0, I)
of LATENT_DIM coordinates, and each of the six SOURCES observes its own
two of them (OBSERVED). Task k is positive when a_k . z exceeds
tau_k = ||a_k|| * Phi^-1(1 - p_k), which pins the marginal positive rate
at p_k exactly. Task directions span coordinates seen by two or more
sources, so recovering a task fully requires combining sources. Patients
contribute a geometric number of stays whose latents correlate by
PATIENT_CORR; every payload value carries noise of std NOISE_STD. A
`GenConfig` sets only what the profiles vary: the tasks, the record
count, the mode, the seed and the stays per patient.

Two output modes share the label machinery: `latent` stores per-source
embeddings directly; `raw` synthesizes time series (drift and level tied
to observed coordinates), timed imaging screenings, and token sequences
whose distribution encodes the observed coordinates.

Exact-count mode replaces threshold sampling by rank assignment on a_k . z:
the top pos_count records become positive, the bottom neg_count negative,
and the middle band unknown, reproducing a requested label profile exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import seeding
from .encoders import SourceSpec
from .losses import UNKNOWN
from .storage import MODES, Dataset, write_dataset

__all__ = [
    "TaskSpec",
    "GenConfig",
    "GenSummary",
    "LATENT_DIM",
    "SOURCES",
    "OBSERVED",
    "PATIENT_CORR",
    "NOISE_STD",
    "threshold_for",
    "task_source_names",
    "build",
    "generate",
    "table1_profile",
    "planted_profile",
    "TABLE1_COUNTS",
    "TABLE1_TOTAL",
    "PROFILES",
]

_NORMAL = NormalDist()

LATENT_DIM = 12
# in feed order: a dataset lists its sources, and a model reads them, in this order
SOURCES = (
    SourceSpec(0, "xr", "image", 8, raw_dim=16, image_rule="latest"),
    SourceSpec(1, "axr", "image", 8, raw_dim=16, image_rule="aggregate"),
    SourceSpec(2, "proc", "time-series", 33, n_series=3),
    SourceSpec(3, "lab", "time-series", 44, n_series=4),
    SourceSpec(4, "chart", "time-series", 22, n_series=2),
    SourceSpec(5, "txt", "text", 8, token_vocab=64),
)
OBSERVED = {  # source name -> the latent coordinates it observes
    "xr": (0, 1), "axr": (2, 3), "proc": (4, 5),
    "lab": (6, 7), "chart": (8, 9), "txt": (10, 11),
}
PATIENT_CORR = 0.3   # correlation of latents across one patient's stays
NOISE_STD = 0.05


@dataclass(frozen=True)
class TaskSpec:
    name: str
    direction: tuple[float, ...]
    pos_rate: float
    missing_rate: float = 0.0
    exact_counts: tuple[int, int] | None = None  # (positives, negatives)

    def __post_init__(self):
        if not 0.0 < self.pos_rate < 1.0:
            raise ValueError(f"task {self.name!r}: pos_rate must lie in (0, 1)")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError(f"task {self.name!r}: missing_rate must lie in [0, 1)")
        if all(w == 0.0 for w in self.direction):
            raise ValueError(f"task {self.name!r}: direction must be nonzero")
        if self.exact_counts is not None:
            pos, neg = self.exact_counts
            if pos < 0 or neg < 0:
                raise ValueError(f"task {self.name!r}: exact counts must be nonnegative")


@dataclass(frozen=True)
class GenConfig:
    tasks: tuple[TaskSpec, ...]
    n_records: int
    mode: str = "latent"
    seed: int = 0
    stay_p: float = 0.5            # geometric(stay_p) stays per patient

    def validate(self) -> None:
        if not self.tasks:
            raise ValueError("need at least one task")
        tnames = [t.name for t in self.tasks]
        if len(set(tnames)) != len(tnames):
            raise ValueError("duplicate task names")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.stay_p <= 1.0:
            raise ValueError("stay_p must lie in (0, 1]")
        if self.n_records <= 0:
            raise ValueError("n_records must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for t in self.tasks:
            if t.exact_counts is not None and sum(t.exact_counts) > self.n_records:
                pos, neg = t.exact_counts
                raise ValueError(f"task {t.name!r}: exact counts {pos}+{neg} exceed "
                                 f"record count {self.n_records}")
            if len(t.direction) != LATENT_DIM:
                raise ValueError(f"task {t.name!r}: direction length must be {LATENT_DIM}")
            if len(task_source_names(t)) < 2:
                raise ValueError(
                    f"task {t.name!r}: signal direction must touch coordinates observed "
                    f"by at least two sources")


def task_source_names(task: TaskSpec) -> tuple[str, ...]:
    """Sources whose observed coordinates carry nonzero weight in the task."""
    support = {i for i, w in enumerate(task.direction) if w != 0.0}
    return tuple(s.name for s in SOURCES if support & set(OBSERVED[s.name]))


def threshold_for(direction, pos_rate: float) -> float:
    """tau = ||a|| * Phi^-1(1 - p), so P(a . z > tau) = p for z ~ N(0, I)."""
    norm = float(np.linalg.norm(np.asarray(direction, dtype=np.float64)))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return norm * _NORMAL.inv_cdf(1.0 - pos_rate)


@dataclass
class GenSummary:
    n_records: int
    n_patients: int
    counts: dict  # task name -> {"pos": int, "neg": int, "unknown": int}


def _draw_cohort(cfg: GenConfig, gen: np.random.Generator) -> np.ndarray:
    """Patient id per record; geometric stays, the last truncated to n_records."""
    ids = []
    patient = 0
    remaining = cfg.n_records
    while remaining > 0:
        stays = min(int(gen.geometric(cfg.stay_p)), remaining)
        ids.extend([patient] * stays)
        patient += 1
        remaining -= stays
    return np.asarray(ids, dtype=np.int64)


def _draw_latents(patients: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    n_patients = int(patients.max()) + 1
    base = gen.standard_normal((n_patients, LATENT_DIM))
    fresh = gen.standard_normal((patients.size, LATENT_DIM))
    return math.sqrt(PATIENT_CORR) * base[patients] + math.sqrt(1.0 - PATIENT_CORR) * fresh


def _assign_labels(cfg: GenConfig, scores: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    n = scores.shape[0]
    labels = np.full((n, len(cfg.tasks)), UNKNOWN, dtype=np.int64)
    for k, task in enumerate(cfg.tasks):
        col = scores[:, k]
        if task.exact_counts is not None:
            pos, neg = task.exact_counts
            order = np.argsort(-col, kind="stable")
            labels[order[:pos], k] = 1
            if neg > 0:
                labels[order[n - neg:], k] = 0
        else:
            tau = threshold_for(task.direction, task.pos_rate)
            labels[:, k] = (col > tau).astype(np.int64)
            if task.missing_rate > 0.0:
                mask = gen.random(n) < task.missing_rate
                labels[mask, k] = UNKNOWN
    return labels


def _latent_payloads(cfg: GenConfig, z: np.ndarray, gen: np.random.Generator) -> dict:
    """Per source, its one payload array: the embeddings."""
    out = {}
    for s in SOURCES:
        coords = list(OBSERVED[s.name])
        mix = seeding.rng(cfg.seed, "mixmap", s.source_id).normal(
            0.0, 1.0 / math.sqrt(len(coords)), size=(s.dim, len(coords)))
        noise = gen.standard_normal((z.shape[0], s.dim))
        out[s.name] = (z[:, coords] @ mix.T + NOISE_STD * noise,)
    return out


def _raw_payloads(cfg: GenConfig, z: np.ndarray, gen: np.random.Generator) -> dict:
    """Per source, the arrays of its payload file (see storage.payload_layout)."""
    n = z.shape[0]
    raw: dict = {}
    image_specs = [s for s in SOURCES if s.modality == "image"]
    union = sorted({c for s in image_specs for c in OBSERVED[s.name]})
    raw_dim = image_specs[0].raw_dim   # the image sources share their screenings
    proj = seeding.rng(cfg.seed, "screen-proj").normal(
        0.0, 1.0 / math.sqrt(len(union)), size=(raw_dim, len(union)))
    counts, times, vectors = [], [], []
    for i in range(n):
        count = int(gen.integers(1, 5))
        counts.append(count)
        times.append(np.sort(gen.uniform(0.0, 72.0, size=count)))
        for _ in range(count):
            vectors.append(proj @ z[i, union] + NOISE_STD * gen.standard_normal(raw_dim))
    screenings = (np.array(counts, np.int64), np.concatenate(times), np.stack(vectors))
    raw.update((s.name, screenings) for s in image_specs)
    for s in SOURCES:
        coords = list(OBSERVED[s.name])
        if s.modality == "time-series":
            lengths, values = [], []
            for i in range(n):
                for j in range(s.n_series):
                    level = z[i, coords[j % len(coords)]]
                    drift = z[i, coords[(j + 1) % len(coords)]]
                    length = int(gen.integers(6, 17))
                    ts = np.linspace(0.0, 1.0, length)
                    lengths.append(length)
                    values.append(level + drift * ts + NOISE_STD * gen.standard_normal(length))
            raw[s.name] = (np.array(lengths, np.int64).reshape(n, s.n_series),
                           np.concatenate(values))
        elif s.modality == "text":
            mix = seeding.rng(cfg.seed, "token-map", s.source_id).normal(
                0.0, 1.0, size=(s.token_vocab, len(coords)))
            counts, ids = [], []
            for i in range(n):
                logits = mix @ z[i, coords]
                probs = np.exp(logits - logits.max())
                probs /= probs.sum()
                count = int(gen.integers(60, 200))
                counts.append(count)
                ids.append(gen.choice(s.token_vocab, size=count, p=probs))
            raw[s.name] = (np.array(counts, np.int64), np.concatenate(ids).astype(np.int64))
    return raw


def build(cfg: GenConfig) -> Dataset:
    """Generate the dataset in memory (deterministic in cfg.seed)."""
    cfg.validate()
    gen = seeding.rng(cfg.seed, "generate")
    patients = _draw_cohort(cfg, gen)
    z = _draw_latents(patients, gen)
    directions = np.asarray([t.direction for t in cfg.tasks], dtype=np.float64)
    scores = z @ directions.T
    labels = _assign_labels(cfg, scores, gen)
    payloads = (_latent_payloads if cfg.mode == "latent" else _raw_payloads)(cfg, z, gen)
    ds = Dataset(
        source_specs=SOURCES,
        task_names=tuple(t.name for t in cfg.tasks),
        labels=labels,
        patients=patients,
        mode=cfg.mode,
        seed=cfg.seed,
        payloads=payloads,
        generator={
            "latent_dim": LATENT_DIM,
            "observed": {k: list(v) for k, v in OBSERVED.items()},
            "tasks": [{"name": t.name, "pos_rate": t.pos_rate,
                       "missing_rate": t.missing_rate} for t in cfg.tasks],
            "stay_p": cfg.stay_p,
            "patient_corr": PATIENT_CORR,
            "noise_std": NOISE_STD,
        },
    )
    ds.validate()
    return ds


def summarize(ds: Dataset) -> GenSummary:
    counts = {}
    for k, name in enumerate(ds.task_names):
        col = ds.labels[:, k]
        counts[name] = {
            "pos": int(np.sum(col == 1)),
            "neg": int(np.sum(col == 0)),
            "unknown": int(np.sum(col == UNKNOWN)),
        }
    return GenSummary(n_records=ds.n_records,
                      n_patients=int(np.unique(ds.patients).size),
                      counts=counts)


def generate(cfg: GenConfig, out_dir) -> GenSummary:
    ds = build(cfg)
    write_dataset(ds, out_dir)
    return summarize(ds)


# ---------------------------------------------------------------------------
# built-in profiles


# (name, positives, negatives) of the reference cohort; totals 90811 records.
TABLE1_COUNTS = (
    ("Fracture", 1527, 85),
    ("Lung Lesion", 1511, 100),
    ("Enlarged CM", 4783, 1831),
    ("Consolidation", 8046, 1701),
    ("Pneumonia", 8145, 6539),
    ("Atelectasis", 29466, 808),
    ("Lung Opacity", 28433, 1107),
    ("Pneumothorax", 6365, 27806),
    ("Edema", 19217, 11496),
    ("Cardiomegaly", 27760, 7072),
    ("Length of stay", 8488, 82323),
    ("48h Mortality", 2230, 88581),
)
TABLE1_TOTAL = 90811


_WEIGHTS = (1.0, -0.7, 0.8, 1.2, -0.9, 0.6)


def _ring_direction(start: int, span: int) -> tuple[float, ...]:
    """Direction touching `span` consecutive sources of the ring of SOURCES."""
    direction = [0.0] * LATENT_DIM
    w = 0
    for step in range(span):
        name = SOURCES[(start + step) % len(SOURCES)].name
        for coord in OBSERVED[name]:
            direction[coord] = _WEIGHTS[w % len(_WEIGHTS)]
            w += 1
    return tuple(direction)


def table1_profile(scale: float = 1.0, seed: int = 0, mode: str = "latent") -> GenConfig:
    """Exact-count profile matching the reference cohort's label table.

    `scale` shrinks every count proportionally (rounded, floor 1), including
    the total record count.
    """
    if not np.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    total = max(1, round(TABLE1_TOTAL * scale))
    tasks = []
    for k, (name, pos, neg) in enumerate(TABLE1_COUNTS):
        pos_s = max(1, round(pos * scale))
        neg_s = max(1, round(neg * scale))
        tasks.append(TaskSpec(
            name=name,
            direction=_ring_direction(start=k % 6, span=2),
            pos_rate=min(max(pos / TABLE1_TOTAL, 1e-6), 1.0 - 1e-6),
            missing_rate=max(0.0, 1.0 - (pos + neg) / TABLE1_TOTAL),
            exact_counts=(pos_s, neg_s),
        ))
    return GenConfig(
        tasks=tuple(tasks),
        n_records=total,
        mode=mode,
        seed=seed,
        stay_p=0.1636,  # about 6.1 stays per patient
    )


def planted_profile(n_records: int = 2000, seed: int = 0, mode: str = "latent") -> GenConfig:
    """Cross-modal benchmark: eight tasks spanning two or three sources each."""
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    rates = (0.30, 0.25, 0.35, 0.28, 0.32, 0.22, 0.30, 0.26)
    tasks = []
    for k in range(8):
        span = 2 if k < 6 else 3
        tasks.append(TaskSpec(
            name=f"task{k}",
            direction=_ring_direction(start=k % 6, span=span),
            pos_rate=rates[k],
            missing_rate=0.10,
        ))
    return GenConfig(
        tasks=tuple(tasks),
        n_records=n_records,
        mode=mode,
        seed=seed,
        stay_p=0.5,
    )


PROFILES = {"table1": table1_profile, "planted": planted_profile}
