"""Zero-shot scoring of unseen classes from precomputed embeddings.

The image/text encoder is external: this module consumes unit-normalized
image embeddings and a per-class bank of prompt embeddings, computes mean
cosine similarity per class, and maps it to a probability with a scaled
sigmoid p = sigmoid(scale * s).  Because the mean of inner products is the
inner product with the mean, the batched path is a single product (an
einsum) with the per-class mean prompt vectors.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EmbeddingSet, ScoreMatrix, _check_real, _check_unique, _map_rows, _read_json, _unit_norm, _unit_rows
from .loss import stable_sigmoid


@dataclass
class ZsConfig:
    scale: float = 5.0

    def __post_init__(self):
        _check_real("scale", self.scale, "(0, inf)")


@dataclass
class PromptBank:
    """Per-class prompt embeddings: a new dict of K x D unit rows per class, one D for all.

    ``files`` lists what ``load_prompt_manifest`` read: the manifest, then each class's embedding
    file and its ids sidecar, if that was read too.  ``means`` is the C x D matrix of per-class
    mean prompt embeddings (not re-normalized), built once here for every scoring call."""

    class_names: list
    embeddings: dict
    files: tuple = ()

    def __post_init__(self):
        self.class_names = list(self.class_names)
        if not self.class_names:
            raise ValueError("a prompt bank needs at least one class")
        _check_unique(self.class_names, "class name in prompt bank")
        embeddings = {}
        for name in self.class_names:
            mat = np.asarray(self.embeddings.get(name, ()), dtype=np.float64)
            if mat.ndim != 2 or mat.shape[0] < 1:
                raise ValueError(f"class {name!r} needs at least one prompt embedding")
            if embeddings and mat.shape[1] != dim:
                raise ValueError(f"class {name!r} prompt embeddings have dimension {mat.shape[1]}, not {dim}")
            dim = mat.shape[1]
            if not _unit_norm(mat):
                raise ValueError(f"class {name!r} prompt embeddings are not unit norm")
            embeddings[name] = mat
        self.embeddings = embeddings
        self.means = np.stack([embeddings[name].mean(axis=0) for name in self.class_names])

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def unit_normalize(emb: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm by the rule of ``data._unit_rows``, naming the first row it rejects.

    The result is a new float64 matrix; ``emb`` is left unchanged.
    """
    vectors = emb.vectors.copy()
    fault = _unit_rows(vectors)
    if fault:
        raise ValueError(f"{fault[1]} (id {emb.ids[fault[0]]!r})")
    return EmbeddingSet(ids=emb.ids, vectors=vectors, normalized=True)


def score_batch(images: EmbeddingSet, bank: PromptBank, cfg: ZsConfig) -> ScoreMatrix:
    """Probabilities of all images x classes by one einsum, so no image's depend on the others."""
    if not images.normalized:
        raise ValueError("image embeddings must be unit-normalized first")
    if images.dim != bank.dim:
        raise ValueError("embedding dimension mismatch between images and prompts")
    similarities = np.einsum("nd,cd->nc", images.vectors, bank.means)
    return ScoreMatrix(
        ids=images.ids,
        values=stable_sigmoid(cfg.scale * similarities),
        kind="probabilities",
        class_names=bank.class_names,
    )


def score_file(path, bank: PromptBank, cfg: ZsConfig):
    """(ids, N x C probabilities, files read): ``score_batch`` of each unit-normalized block of
    embedding file ``path`` of the bank's dimension (see ``data._map_rows``), under placeholder ids."""
    def score(block):
        return score_batch(EmbeddingSet(range(len(block)), block, normalized=True), bank, cfg).values
    source = bank.files[0] if bank.files else "the prompt bank"
    return _map_rows(path, score, len(bank.class_names), (bank.dim, source), unit=True)


def load_prompt_manifest(path) -> PromptBank:
    """Build a PromptBank from a manifest JSON listing one embedding file per class.

    Manifest shape: {"classes": [{"name": ..., "embeddings": "<file>"}, ...]}, other keys ignored;
    the manifest's class order defines the output column order.  Embedding
    files may be EMB1 binary or CSV; rows are unit-normalized on load.
    """
    path = Path(path)
    manifest = _read_json(path)
    entries = manifest.get("classes") if isinstance(manifest, dict) else None
    if not entries or not isinstance(entries, list):
        raise ValueError(f"{path}: manifest lists no classes")
    class_names, embeddings, files, dim = [], {}, [path], None
    for entry in entries:
        fields = entry if isinstance(entry, dict) else {}
        name, emb_path = fields.get("name"), fields.get("embeddings")
        if not (isinstance(name, str) and isinstance(emb_path, str) and name and emb_path):
            raise ValueError(f"{path}: each class needs 'name' and 'embeddings'")
        if name in embeddings:
            raise ValueError(f"{path}: duplicate class {name!r}")
        emb_file = path.parent / emb_path
        ids, embeddings[name], read = _map_rows(emb_file, dim=dim, unit=True)
        files += read
        if not ids:
            raise ValueError(f"{emb_file}: no prompt embeddings for class {name!r}")
        dim = dim or (embeddings[name].shape[1], emb_file)  # every later file must match the first
        class_names.append(name)
    return PromptBank(class_names=class_names, embeddings=embeddings, files=tuple(files))
