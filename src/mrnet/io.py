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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ._edges import (check_indices, check_keyable, decode, distinct_uniform,
                     edge_key)
from ._rng import TAG_NEGATIVES, derive_seed
from .models import (ModelParams, ScoreModel, NetworkShape, _require_int,
                     _require_real)

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

    ``positives`` is an (n, 3) int64 array of (head, tail, relation)
    index rows in file order, duplicates removed; ``duplicates`` counts
    the input lines dropped because an identical triple appeared
    earlier in the same file.
    """

    entity_vocab: Dict[str, int]
    relation_vocab: Dict[str, int]
    positives: np.ndarray
    duplicates: int = 0

    @property
    def n_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def n_relations(self) -> int:
        return len(self.relation_vocab)


def _indices(names: List[str], vocab: Dict[str, int]) -> np.ndarray:
    """Vocabulary indices of ``names``; unseen names join the vocabulary
    in order of first appearance."""
    for name in dict.fromkeys(names):
        vocab.setdefault(name, len(vocab))
    return np.fromiter(map(vocab.__getitem__, names), dtype=np.int64,
                       count=len(names))


def _read_text(path, error: type) -> str:
    """A UTF-8 file's text with "\r\n" and a lone "\r" read as "\n", as
    in text mode; bytes that are not UTF-8 raise ``error`` naming the
    file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {lineno}: not UTF-8 text") from None


def _parse_lines(path, order: Sequence[str], evocab: Dict[str, int],
                 rvocab: Dict[str, int]) -> Tuple[np.ndarray, int]:
    order = tuple(order)
    if sorted(order) != ["head", "relation", "tail"]:
        raise ValueError(f"column_order must permute head/relation/tail, got {order}")
    lines = _read_text(path, TripleParseError).split("\n")
    kept = [i for i, line in enumerate(lines) if line.strip()]
    if not kept:
        return np.empty((0, 3), dtype=np.int64), 0
    lines = [lines[i] for i in kept]
    tabs = np.fromiter(map(str.count, lines, ["\t"] * len(lines)),
                       dtype=np.int64, count=len(lines))
    bad = np.flatnonzero(tabs != 2)
    if len(bad):
        raise TripleParseError(
            f"{path}: line {kept[bad[0]] + 1}: expected 3 tab-separated "
            f"fields, got {tabs[bad[0]] + 1}")
    fields = "\t".join(lines).split("\t")
    named = {name: fields[i::3] for i, name in enumerate(order)}
    # entities are numbered head before tail within a line
    ents = [""] * (2 * len(lines))
    ents[0::2], ents[1::2] = named["head"], named["tail"]
    ht = _indices(ents, evocab).reshape(-1, 2)
    rels = _indices(named["relation"], rvocab)
    triples = np.column_stack([ht, rels])
    # keep each triple's first line
    n, k = len(evocab), len(rvocab)
    check_keyable(n, k, TripleParseError, f"{path}: ")
    _, first = np.unique(edge_key(*triples.T, n, k), return_index=True)
    first.sort()
    return triples[first], len(triples) - len(first)


def load_triples(path, column_order: Sequence[str] = COLUMN_ORDERS["hrt"]
                 ) -> TripleDataset:
    """Read one triple file, as ``load_triple_split`` reads each file."""
    return load_triple_split([path], column_order)[0]


def load_triple_split(paths: Sequence, column_order: Sequence[str] =
                      COLUMN_ORDERS["hrt"]) -> List[TripleDataset]:
    """Load several triple files over one shared vocabulary.

    Vocabularies grow in appearance order across the files in the
    given order (train first, typically), so indices are consistent
    between splits.  Duplicate triples are dropped and counted within
    each file only.  A file with no triples at all is an error.
    """
    evocab: Dict[str, int] = {}
    rvocab: Dict[str, int] = {}
    out = []
    for path in paths:
        triples, dups = _parse_lines(path, column_order, evocab, rvocab)
        if not len(triples):
            raise ValueError(f"{path}: no triples found")
        out.append(TripleDataset(evocab, rvocab, triples, duplicates=dups))
    return out


def sample_negatives(dataset: TripleDataset, ratio: float,
                     shape: NetworkShape, seed: int) -> np.ndarray:
    """Draw ceil(ratio * |positives|) edges avoiding positives, to be
    labelled 0.

    Uniform over the non-positive part of the edge universe, without
    replacement, deterministic per seed.  Returns an (m, 3) int64 array
    of (head, tail, relation) rows in linear-index order.  A ratio that
    is negative or not finite raises ``ValueError``, and a positive
    outside ``shape`` raises ``EdgeIndexError``.
    """
    _require_real("ratio", ratio, 0)
    n, k = shape.n_entities, shape.n_relations
    check_indices(n, k, *dataset.positives.T)
    check_keyable(n, k)
    count = math.ceil(ratio * len(dataset.positives))
    if count == 0:
        return np.empty((0, 3), dtype=np.int64)
    pos = np.unique(edge_key(*dataset.positives.T, n, k))
    if count > shape.n_edges - len(pos):
        raise ValueError(
            f"cannot draw {count} negatives: only {shape.n_edges - len(pos)} "
            "non-positive edges exist")
    rng = np.random.default_rng(derive_seed(seed, TAG_NEGATIVES))
    chosen = distinct_uniform(rng, shape.n_edges, count, avoid=pos)
    return np.column_stack(decode(chosen, n, k))


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
    lines = _read_text(path, CheckpointError).splitlines()
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
        _require_int("entities", n, 1)
        _require_int("relations", k, 1)
        _require_real("radius", radius, 0, strict=True)
    except ValueError as exc:
        raise CheckpointError(f"{path}: line 2: {exc}") from None
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
        parser.read_string(_read_text(path, ConfigError), source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if section not in parser:
        raise ConfigError(f"{path}: missing [{section}] section")
    return parser[section]
