"""Zero-shot scoring of unseen classes from precomputed embeddings.

The image/text encoder is external: this module consumes unit-normalized
image embeddings and a per-class bank of prompt embeddings, computes mean
cosine similarity per class, and maps it to a probability with a scaled
sigmoid p = sigmoid(scale * s).  Because the mean of inner products is the
inner product with the mean, the batched path is a single matrix multiply
against the per-class mean prompt vectors.
"""

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .data import EmbeddingSet, ScoreMatrix, load_embeddings
from .loss import stable_sigmoid


@dataclass
class ZsConfig:
    scale: float = 5.0

    def __post_init__(self):
        if not (0 < self.scale < np.inf):
            raise ValueError("scale must be finite and > 0")


@dataclass
class PromptBank:
    """Per-class prompt texts and their embeddings (one K x D matrix per class)."""

    class_names: list
    prompts_per_class: dict
    embeddings: dict

    def __post_init__(self):
        self.class_names = list(self.class_names)
        for name in self.class_names:
            mat = np.asarray(self.embeddings[name], dtype=np.float64)
            if mat.ndim != 2 or mat.shape[0] < 1:
                raise ValueError(f"class {name!r} needs at least one prompt embedding")
            norms = np.linalg.norm(mat, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-6):
                raise ValueError(f"class {name!r} prompt embeddings are not unit norm")
            self.embeddings[name] = mat
        texts = self.prompts_per_class
        if texts:
            for name in self.class_names:
                if not texts.get(name):
                    raise ValueError(f"class {name!r} has no prompt text")

    @property
    def dim(self) -> int:
        return self.embeddings[self.class_names[0]].shape[1]

    def mean_prompt_matrix(self) -> np.ndarray:
        """C x D matrix of per-class mean prompt embeddings (not re-normalized)."""
        return np.stack(
            [self.embeddings[name].mean(axis=0) for name in self.class_names]
        )


def unit_normalize(emb: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm; all-zero rows are rejected.

    The result is a new float64 matrix; ``emb`` is left unchanged.
    """
    norms = np.linalg.norm(emb.vectors, axis=1)
    if (norms == 0).any():
        bad = int(np.nonzero(norms == 0)[0][0])
        raise ValueError(f"zero-norm embedding row (id {emb.ids[bad]!r})")
    return EmbeddingSet(ids=emb.ids, vectors=emb.vectors / norms[:, None], normalized=True)


def score_batch(images: EmbeddingSet, bank: PromptBank, cfg: ZsConfig) -> ScoreMatrix:
    """Probability matrix for all images x classes via one matrix multiply."""
    if not images.normalized:
        raise ValueError("image embeddings must be unit-normalized first")
    if images.dim != bank.dim:
        raise ValueError("embedding dimension mismatch between images and prompts")
    similarities = images.vectors @ bank.mean_prompt_matrix().T
    return ScoreMatrix(
        ids=images.ids,
        values=stable_sigmoid(cfg.scale * similarities),
        kind="probabilities",
        class_names=bank.class_names,
    )


def default_prompt_texts() -> dict:
    """Bundled prompt bank: unseen-class name -> list of text descriptions.

    Texts only; the corresponding embeddings must be produced by an external
    encoder and supplied via a manifest.
    """
    payload = resources.files("tailkit").joinpath("prompts/ood_prompts.json")
    return json.loads(payload.read_text(encoding="utf-8"))


def load_prompt_manifest(path) -> PromptBank:
    """Build a PromptBank from a manifest JSON listing one embedding file per class.

    Manifest shape: {"classes": [{"name": ..., "embeddings": "<file>"}, ...]};
    the manifest's class order defines the output column order.  Embedding
    files may be EMB1 binary or CSV; rows are unit-normalized on load.
    """
    path = Path(path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    entries = manifest.get("classes") if isinstance(manifest, dict) else None
    if not entries or not isinstance(entries, list):
        raise ValueError(f"{path}: manifest lists no classes")
    class_names, embeddings, texts = [], {}, {}
    for entry in entries:
        if not isinstance(entry, dict) or not entry.get("name") or not entry.get("embeddings"):
            raise ValueError(f"{path}: each class needs 'name' and 'embeddings'")
        name, emb_path = entry["name"], entry["embeddings"]
        if name in embeddings:
            raise ValueError(f"{path}: duplicate class {name!r}")
        emb = unit_normalize(load_embeddings(path.parent / emb_path))
        class_names.append(name)
        embeddings[name] = emb.vectors
        if "prompts" in entry:
            texts[name] = list(entry["prompts"])
    return PromptBank(class_names=class_names, prompts_per_class=texts, embeddings=embeddings)
