"""File formats and configuration: triple files, checkpoints, configs.

Triple files are UTF-8, tab-separated, three columns per line (column
order configurable, default head/relation/tail).  Checkpoints are a
line-oriented text format that round-trips float64 parameters
bit-exactly.  Run configuration is INI-style ``key = value`` with one
section per subcommand.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._rng import derive_seed
from .estimation import Observation
from .models import ModelParams, ScoreModel, NetworkShape, Triple
from .simulation import _decode

__all__ = [
    "TripleParseError",
    "CheckpointError",
    "ConfigError",
    "TripleDataset",
    "COLUMN_ORDERS",
    "load_triples",
    "load_triple_split",
    "sample_negatives",
    "save_checkpoint",
    "load_checkpoint",
    "read_config",
]

_CKPT_MAGIC = "MRNCKPT"
_CKPT_VERSION = 1
_TAG_NEGATIVES = 5  # stream tag; 0-4 belong to the simulation module

# flag spellings -> (position of head, relation, tail) in a line
COLUMN_ORDERS = {
    "hrt": ("head", "relation", "tail"),
    "htr": ("head", "tail", "relation"),
}


class TripleParseError(ValueError):
    """A triple file line that does not follow the format."""


class CheckpointError(ValueError):
    """A checkpoint file that does not follow the format."""


class ConfigError(ValueError):
    """A run configuration that is missing or inconsistent."""


@dataclasses.dataclass
class TripleDataset:
    """Named triples mapped onto dense indices.

    ``duplicates`` counts input lines dropped because an identical
    triple appeared earlier in the same file.
    """

    entity_vocab: Dict[str, int]
    relation_vocab: Dict[str, int]
    positives: List[Triple]
    negatives: Optional[List[Triple]] = None
    duplicates: int = 0

    @property
    def n_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def n_relations(self) -> int:
        return len(self.relation_vocab)


def _parse_lines(path, order: Sequence[str], evocab: Dict[str, int],
                 rvocab: Dict[str, int]) -> Tuple[List[Triple], int]:
    order = tuple(order)
    if sorted(order) != ["head", "relation", "tail"]:
        raise ValueError(f"column_order must permute head/relation/tail, got {order}")
    triples: List[Triple] = []
    seen = set()
    duplicates = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleParseError(
                    f"{path}: line {lineno}: expected 3 tab-separated "
                    f"fields, got {len(fields)}")
            named = dict(zip(order, fields))
            h = evocab.setdefault(named["head"], len(evocab))
            t = evocab.setdefault(named["tail"], len(evocab))
            r = rvocab.setdefault(named["relation"], len(rvocab))
            key = (h, t, r)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            triples.append(Triple(h, t, r))
    return triples, duplicates


def load_triples(path, column_order: Sequence[str] = COLUMN_ORDERS["hrt"]
                 ) -> TripleDataset:
    """Read one triple file, building vocabularies in appearance order.

    Duplicate triples are dropped and counted.  A file with no triples
    at all is an error.
    """
    evocab: Dict[str, int] = {}
    rvocab: Dict[str, int] = {}
    triples, dups = _parse_lines(path, column_order, evocab, rvocab)
    if not triples:
        raise ValueError(f"{path}: no triples found")
    return TripleDataset(evocab, rvocab, triples, duplicates=dups)


def load_triple_split(paths: Sequence, column_order: Sequence[str] =
                      COLUMN_ORDERS["hrt"]) -> List[TripleDataset]:
    """Load several triple files over one shared vocabulary.

    Vocabularies grow in appearance order across the files in the
    given order (train first, typically), so indices are consistent
    between splits.  Duplicates are counted within each file only.
    """
    evocab: Dict[str, int] = {}
    rvocab: Dict[str, int] = {}
    out = []
    for path in paths:
        triples, dups = _parse_lines(path, column_order, evocab, rvocab)
        if not triples:
            raise ValueError(f"{path}: no triples found")
        out.append(TripleDataset(evocab, rvocab, triples, duplicates=dups))
    return out


def _linearize(triples: Sequence[Triple], shape: NetworkShape) -> np.ndarray:
    n, k = shape.n_entities, shape.n_relations
    return np.asarray([(tr.head * n + tr.tail) * k + tr.rel for tr in triples],
                      dtype=np.int64)


def sample_negatives(dataset: TripleDataset, ratio: float,
                     shape: NetworkShape, seed: int) -> List[Observation]:
    """Draw ceil(ratio * |positives|) label-0 edges avoiding positives.

    Uniform over the non-positive part of the edge universe, without
    replacement, deterministic per seed.
    """
    if ratio < 0:
        raise ValueError("ratio must be nonnegative")
    count = math.ceil(ratio * len(dataset.positives))
    if count == 0:
        return []
    total = shape.n_edges
    pos = np.unique(_linearize(dataset.positives, shape))
    if count > total - len(pos):
        raise ValueError(
            f"cannot draw {count} negatives: only {total - len(pos)} "
            "non-positive edges exist")
    rng = np.random.default_rng(derive_seed(seed, _TAG_NEGATIVES))
    if total <= (1 << 22):
        pool = np.setdiff1d(np.arange(total, dtype=np.int64), pos,
                            assume_unique=True)
        chosen = np.sort(rng.permutation(pool)[:count])
    else:
        # rejection sampling in draw order; collisions with positives or
        # earlier draws are simply redrawn
        draws = np.empty(0, dtype=np.int64)
        while True:
            need = count + 4 * (count * count // total + 1) + 64
            draws = np.concatenate([draws, rng.integers(0, total, size=need)])
            _, first = np.unique(draws, return_index=True)
            first.sort()
            distinct = draws[first]
            distinct = distinct[~np.isin(distinct, pos)]
            if len(distinct) >= count:
                chosen = np.sort(distinct[:count])
                break
    return [Observation(Triple(int(h), int(t), int(r)), 0)
            for h, t, r in zip(*_decode(chosen, shape))]


def save_checkpoint(params: ModelParams, model: ScoreModel, path) -> None:
    """Write parameters as text; floats carry 17 significant digits so
    loading reproduces every float64 bit-exactly."""
    params.check_model(model)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_CKPT_MAGIC} {_CKPT_VERSION}\n")
        fh.write(f"{model.kind} {model.latent_dim} {params.n_entities} "
                 f"{params.n_relations} {params.radius:.17g}\n")
        for block in (params.entities, params.relations):
            for row in block:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def _parse_row(path, lineno: int, line: str, width: int, label: str
               ) -> np.ndarray:
    parts = line.split()
    if len(parts) != width:
        raise CheckpointError(
            f"{path}: line {lineno}: {label} has {len(parts)} values, "
            f"expected {width}")
    try:
        row = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise CheckpointError(f"{path}: line {lineno}: {exc}") from None
    if not np.all(np.isfinite(row)):
        raise CheckpointError(f"{path}: line {lineno}: non-finite value in {label}")
    return row


def load_checkpoint(path) -> Tuple[ModelParams, ScoreModel]:
    """Inverse of save_checkpoint, with format errors located by line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split() != [_CKPT_MAGIC, str(_CKPT_VERSION)]:
        raise CheckpointError(f"{path}: line 1: expected "
                              f"'{_CKPT_MAGIC} {_CKPT_VERSION}' header")
    if len(lines) < 2:
        raise CheckpointError(f"{path}: line 2: missing model description")
    head = lines[1].split()
    if len(head) != 5:
        raise CheckpointError(
            f"{path}: line 2: expected '<kind> <dim> <entities> "
            f"<relations> <radius>'")
    kind, d_s, n_s, k_s, u_s = head
    try:
        d, n, k, radius = int(d_s), int(n_s), int(k_s), float(u_s)
    except ValueError as exc:
        raise CheckpointError(f"{path}: line 2: {exc}") from None
    try:
        model = ScoreModel(kind, d)
    except ValueError as exc:
        raise CheckpointError(f"{path}: line 2: {exc}") from None
    if n < 1 or k < 1 or radius <= 0 or not math.isfinite(radius):
        raise CheckpointError(f"{path}: line 2: bad sizes or radius")
    rows_needed = n + k
    body = lines[2:]
    if len(body) < rows_needed:
        which = ("entity row " + str(len(body))) if len(body) < n else \
            ("relation row " + str(len(body) - n))
        raise CheckpointError(
            f"{path}: truncated: missing {which} (line {len(body) + 3})")
    if len(body) > rows_needed and any(s.strip() for s in body[rows_needed:]):
        raise CheckpointError(
            f"{path}: line {rows_needed + 3}: trailing content after "
            f"{rows_needed} parameter rows")
    ent = np.empty((n, d))
    for i in range(n):
        ent[i] = _parse_row(path, i + 3, body[i], d, f"entity row {i}")
    rd = model.relation_dim
    rel = np.empty((k, rd))
    for j in range(k):
        rel[j] = _parse_row(path, n + j + 3, body[n + j], rd,
                            f"relation row {j}")
    return ModelParams(ent, rel, radius), model


def read_config(path, section: str) -> configparser.SectionProxy:
    """Read one subcommand's section from an INI-style config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if section not in parser:
        raise ConfigError(f"{path}: missing [{section}] section")
    return parser[section]
