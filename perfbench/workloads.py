"""The three benchmark workloads: input generation, CLI commands and output checks.

Each workload writes its inputs into a work directory from the workload
seed, lists the ``tailkit`` argument vectors of one pass (run in order, each
waiting for the previous one), and checks every invocation's outputs against
an independent numpy recomputation or against the outputs of an earlier pass.
Nothing here imports tailkit: the checks must not share code with the program
they judge.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

# Half a unit in the 9th significant digit, relative: the rounding that the
# toolkit's ``.9g`` score CSVs apply to every value they write.
ROUND_REL = 5e-9

GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def write_matrix_csv(path, ids, names, rows_text) -> None:
    """Write ``id,<names>`` then one ``id,<cells>`` line per row of preformatted cells."""
    lines = ["id," + ",".join(names)]
    lines.extend(f"{sample_id},{','.join(cells)}" for sample_id, cells in zip(ids, rows_text))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv(path):
    """(ids, column names, float64 values) of a score CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")[1:]
    ids = [line.split(",", 1)[0] for line in lines[1:]]
    values = np.loadtxt(
        lines[1:], delimiter=",", usecols=range(1, len(names) + 1), ndmin=2, dtype=np.float64
    )
    return ids, names, values


def write_emb1(path, vectors: np.ndarray, ids=None) -> None:
    """EMB1 binary: magic, u32-LE count and dim, float32-LE rows; ids in a JSON sidecar."""
    count, dim = vectors.shape
    path = Path(path)
    path.write_bytes(b"EMB1" + struct.pack("<II", count, dim) + vectors.astype("<f4").tobytes())
    if ids is not None:
        path.with_name(path.name + ".ids.json").write_text(json.dumps(ids), encoding="utf-8")


def close_within(actual, expected, tolerance) -> str:
    """'' when every cell is within its tolerance, else a description of the worst cell."""
    excess = np.abs(actual - expected) - tolerance
    worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
    if excess[worst] <= 0:
        return ""
    return f"cell {worst}: {actual[worst]!r} vs expected {expected[worst]!r}"


def splitmix_floats(state: int, count: int) -> np.ndarray:
    """The first ``count`` SplitMix64 ``next_float`` draws from ``state``, vectorized."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(state) + np.uint64(GOLDEN_GAMMA) * steps
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


class Workload:
    """One workload: ``generate`` writes inputs, ``commands`` is one pass, ``check`` judges."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.work = 0.0
        # digests of each invocation's outputs in the first pass, for determinism checks
        self.reference = {}

    def generate(self, workdir: Path) -> None:
        raise NotImplementedError

    def commands(self) -> list:
        raise NotImplementedError

    def check(self, index: int, workdir: Path) -> str:
        """'' if invocation ``index`` of a pass left correct outputs, else why not."""
        raise NotImplementedError

    def check_layers(self, layers: dict) -> str:
        """'' if the per-layer counts of a traced pass agree with this workload's inputs."""
        return ""

    def _same_as_first_pass(self, index: int, paths) -> str:
        digests = {str(p): sha256_file(p) for p in paths}
        first = self.reference.setdefault(index, digests)
        differing = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
        if differing:
            return f"outputs differ from the first pass: {', '.join(differing)}"
        return ""


class Train(Workload):
    """``tailkit demo`` (two arms, 4000 x 20 x 32, 40 epochs) over a list of seeds."""

    name = "train"
    work_unit = "SGD sample-steps"
    seeds_per_pass = 2
    # demo defaults, restated to compute the work a demo does
    n_samples, n_classes, feature_dim, epochs = 4000, 20, 32, 40
    threshold, r_max, holdout = 0.05, 10.0, 0.2
    outputs = (
        "manifest.json",
        "model_bce_uniform.json",
        "model_db_cas.json",
        "report_bce_uniform.json",
        "report_db_cas.json",
        "summary.json",
    )

    def generate(self, workdir):
        rng = np.random.default_rng([self.seed, 1])
        self.demo_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.seeds_per_pass)]
        self.work = float(sum(self.sample_steps(s) for s in self.demo_seeds))

    def sample_steps(self, seed: int) -> int:
        """SGD sample-steps of one demo: both arms, every epoch, computed independently.

        Restates the synthetic label draw, the holdout split, the repeat-factor
        rule and the epoch-length Bernoulli draws of the SplitMix64 stream; the
        uniform arm's epochs are exactly the training-set size.
        """
        n, c = self.n_samples, self.n_classes
        rng = np.random.Generator(np.random.PCG64(seed))
        freqs = 0.5 * np.arange(1, c + 1, dtype=np.float64) ** -1.5
        rng.standard_normal((c, self.feature_dim))
        labels = rng.random((n, c)) < freqs
        for j in range(c):
            if not labels[:, j].any():
                labels[int(rng.integers(n)), j] = True
        n_train = n - int(n * self.holdout)
        y = labels[:n_train]
        f = y.sum(axis=0) / float(n_train)
        r_class = np.ones(c)
        r_class[f > 0] = np.maximum(1.0, np.sqrt(self.threshold / f[f > 0]))
        repeat = np.where(y, r_class, 0.0).max(axis=1)
        repeat = np.where(y.any(axis=1), np.minimum(self.r_max, repeat), 1.0)
        copies = np.floor(repeat)
        steps = self.epochs * n_train
        for epoch in range(self.epochs):
            draws = splitmix_floats((seed + epoch * GOLDEN_GAMMA) % 2**64, n_train)
            steps += int(copies.sum()) + int((draws < repeat - copies).sum())
        return steps

    def commands(self):
        return [["demo", "--seed", str(s), "--out-dir", f"demo-{s}"] for s in self.demo_seeds]

    def check_layers(self, layers):
        steps = layers["trainer.sample_steps"]
        if steps != self.work:
            return f"counted {steps} sample-steps, computed {self.work:.0f}"
        return ""

    def check(self, index, workdir):
        out = workdir / f"demo-{self.demo_seeds[index]}"
        missing = [name for name in self.outputs if not (out / name).is_file()]
        if missing:
            return f"missing outputs: {', '.join(missing)}"
        gain = json.loads((out / "summary.json").read_text(encoding="utf-8"))["tail_gain"]
        if not gain > 0:
            return f"tail_gain {gain!r} is not > 0"
        return self._same_as_first_pass(index, [out / name for name in self.outputs])


class Refine(Workload):
    """merge-tta (3 logit views) -> ensemble (1.0 / 1.5) -> gate -> eval on N x 20 CSVs."""

    name = "refine"
    work_unit = "score cells read or written"
    n_rows, n_classes = 10000, 20
    weights = (1.0, 1.5)
    # matrices of N x C cells read or written by one pass: merge-tta 3 + 1,
    # ensemble 2 + 1, gate 1 + 1, eval 1 + 1 (labels)
    matrices_per_pass = 11

    def generate(self, workdir):
        rng = np.random.default_rng([self.seed, 2])
        n, c = self.n_rows, self.n_classes
        self.names = ["Normal"] + [f"c{j}" for j in range(1, c)]
        self.ids = [f"s{i:06d}" for i in range(n)]
        freqs = 0.5 * np.arange(1, c + 1, dtype=np.float64) ** -1.5
        labels = (rng.random((n, c)) < freqs).astype(np.int8)
        signal = 1.5 * (2.0 * labels - 1.0)
        base = signal + rng.normal(0.0, 1.5, (n, c))
        # logits in thousandths and probabilities in millionths are exact decimals,
        # so the values the CLI parses are exactly the ones recomputed here
        views = [np.rint(1e3 * (base + rng.normal(0.0, 0.3, (n, c)))).astype(np.int64) for _ in range(3)]
        member = np.rint(1e6 * sigmoid(signal + rng.normal(0.0, 1.5, (n, c)))).astype(np.int64)

        write_matrix_csv(workdir / "labels.csv", self.ids, self.names, labels.astype(str).tolist())
        for k, view in enumerate(views):
            # the first view is in label order; the others are row-permuted
            order = np.arange(n) if k == 0 else rng.permutation(n)
            self._write_permuted(workdir / f"view{k + 1}.csv", view, order, "{:.3f}", 1e3)
        self._write_permuted(workdir / "member2.csv", member, rng.permutation(n), "{:.6f}", 1e6)

        merged = np.mean([sigmoid(v / 1e3) for v in views], axis=0)
        w = np.asarray(self.weights) / sum(self.weights)
        ensembled = np.clip(w[0] * merged + w[1] * (member / 1e6), 0.0, 1.0)
        gate = np.sqrt(1.0 - ensembled[:, 0])
        gated = ensembled * gate[:, None]
        gated[:, 0] = ensembled[:, 0]
        # each stage reads rounded values and rounds what it writes; bound the
        # propagated rounding to first order, with a factor of 2 to spare
        u = ROUND_REL
        e_err = 2 * u * ensembled
        g_err = gate[:, None] * e_err + ensembled * 0.5 / gate[:, None] * e_err[:, [0]] + u * gated
        g_err[:, 0] = e_err[:, 0] + u * ensembled[:, 0]
        self.expected = {
            "merged.csv": (merged, 2 * u * merged + 1e-15),
            "ensembled.csv": (ensembled, 2 * (e_err + u * ensembled) + 1e-15),
            "gated.csv": (gated, 2 * g_err + 1e-15),
        }
        self.work = float(self.matrices_per_pass * n * c)

    def _write_permuted(self, path, ints, order, fmt, scale):
        rows = [[fmt.format(v / scale) for v in row] for row in ints[order].tolist()]
        write_matrix_csv(path, [self.ids[i] for i in order], self.names, rows)

    def commands(self):
        w1, w2 = (str(w) for w in self.weights)
        return [
            ["merge-tta", "--in", "view1.csv", "view2.csv", "view3.csv", "--out", "merged.csv"],
            ["ensemble", "--in", "merged.csv", "member2.csv", "--weights", w1, w2, "--out", "ensembled.csv"],
            ["gate", "--in", "ensembled.csv", "--normal-class", "Normal", "--out", "gated.csv"],
            ["eval", "--scores", "gated.csv", "--labels", "labels.csv", "--out", "report.json"],
        ]

    def check(self, index, workdir):
        if index == 3:
            return self._check_report(workdir / "report.json")
        out = ("merged.csv", "ensembled.csv", "gated.csv")[index]
        if not (workdir / out).is_file():
            return f"missing output {out}"
        ids, names, values = read_matrix_csv(workdir / out)
        if ids != self.ids or names != self.names:
            return f"{out}: rows or columns are not in label order"
        expected, tolerance = self.expected[out]
        worst = close_within(values, expected, tolerance)
        return f"{out}: {worst}" if worst else ""

    def _check_report(self, path):
        if not path.is_file():
            return "missing output report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        if sorted(report["per_class"]) != sorted(self.names):
            return "report.json: per-class entries do not match the classes"
        bad = [k for k, v in report["macro"].items() if v is None or not 0.0 <= v <= 1.0]
        if bad:
            return f"report.json: macro metrics out of [0, 1]: {', '.join(bad)}"
        return ""


class Image(Workload):
    """preprocess of a 2048^2 16-bit PGM to 1024^2 with six TTA views, then zeroshot."""

    name = "image"
    work_unit = "output pixels plus embeddings"
    side, out_side = 2048, 1024
    transforms = ("identity", "hflip", "rot+5", "rot-5", "zoom1.1", "zoom0.9")
    n_images, dim, prompts_per_class, scale = 20000, 512, 16, 5.0
    classes = ("Scoliosis", "Osteopenia", "Bulla", "Infarction", "Adenopathy", "Goiter")

    def generate(self, workdir):
        rng = np.random.default_rng([self.seed, 3])
        yy, xx = np.mgrid[0 : self.side, 0 : self.side].astype(np.float64)
        field = 22000 + 15000 * np.sin(xx / 150.0) * np.cos(yy / 210.0) + 9000 * (yy / self.side)
        pixels = np.clip(np.rint(field + rng.normal(0.0, 3000.0, field.shape)), 0, 65535)
        header = f"P5\n{self.side} {self.side}\n65535\n".encode("ascii")
        (workdir / "scan.pgm").write_bytes(header + pixels.astype(">u2").tobytes())

        images = rng.standard_normal((self.n_images, self.dim)).astype(np.float32)
        self.ids = [f"img{i:05d}" for i in range(self.n_images)]
        write_emb1(workdir / "images.emb", images, self.ids)
        prompt_dir = workdir / "prompts"
        prompt_dir.mkdir()
        means = []
        for name in self.classes:
            bank = rng.standard_normal((self.prompts_per_class, self.dim)).astype(np.float32)
            bank += 2.0 * rng.standard_normal(self.dim).astype(np.float32)
            write_emb1(prompt_dir / f"{name}.emb", bank)
            unit = bank.astype(np.float64)
            means.append((unit / np.linalg.norm(unit, axis=1, keepdims=True)).mean(axis=0))
        manifest = {"classes": [{"name": n, "embeddings": f"{n}.emb"} for n in self.classes]}
        (prompt_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        x = images.astype(np.float64)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        self.expected_scores = sigmoid(self.scale * (x @ np.stack(means).T))
        self.work = float(len(self.transforms) * self.out_side**2 + self.n_images)

    def commands(self):
        return [
            ["preprocess", "scan.pgm", "--task", "1", "--size", str(self.out_side),
             "--tta", *self.transforms, "--out-dir", "views"],
            ["zeroshot", "--images", "images.emb", "--prompts", "prompts", "--scale",
             str(self.scale), "--out", "zeroshot.csv"],
        ]

    def check(self, index, workdir):
        return self._check_views(workdir / "views") if index == 0 else self._check_scores(workdir)

    def _check_views(self, views):
        paths = []
        for name in self.transforms:
            raw, sidecar = views / f"scan__{name}.raw", views / f"scan__{name}.json"
            if not (raw.is_file() and sidecar.is_file()):
                return f"missing view {name}"
            if json.loads(sidecar.read_text(encoding="utf-8"))["shape"] != [3, self.out_side, self.out_side]:
                return f"view {name}: wrong shape in its sidecar"
            tensor = np.fromfile(raw, dtype="<f4")
            if tensor.size != 3 * self.out_side**2 or not np.isfinite(tensor).all():
                return f"view {name}: wrong size or non-finite values"
            paths += [raw, sidecar]
        return self._same_as_first_pass(0, paths + [views / "manifest.json"])

    def _check_scores(self, workdir):
        if not (workdir / "zeroshot.csv").is_file():
            return "missing output zeroshot.csv"
        ids, names, values = read_matrix_csv(workdir / "zeroshot.csv")
        if ids != self.ids or names != list(self.classes):
            return "zeroshot.csv: rows or columns do not match the images and classes"
        expected = self.expected_scores
        worst = close_within(values, expected, 2 * ROUND_REL * expected + 1e-12)
        return f"zeroshot.csv: {worst}" if worst else ""


WORKLOADS = {w.name: w for w in (Train, Refine, Image)}
