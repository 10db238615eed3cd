"""Synthetic instruction corpus: seeded per-class templates plus JSONL I/O.

Each class owns a small lexicon (verbs, object phrases, placements) built
around a distinctive household object, so classes are lexically separable by
design. Instructions are sampled without replacement from the enumerated
template space, which makes every class's texts unique and the whole corpus a
deterministic function of the seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .checks import check_int, json_fields, parse_json
from .features import tokenize

__all__ = [
    "InstructionRecord",
    "ClassTheme",
    "THEMES",
    "TRAIN_FRACTION",
    "generate_synthetic_corpus",
    "write_corpus",
    "read_corpus",
]


@dataclass(frozen=True)
class InstructionRecord:
    """One labelled instruction; split is "train" or "test"."""

    text: str
    task_id: int
    split: str = "train"

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise ValueError(f"text must be a string, got {self.text!r}")
        check_int(self.task_id, "task_id")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")


@dataclass(frozen=True)
class ClassTheme:
    """Lexicon for one instruction class."""

    name: str
    verbs: tuple[str, ...]
    objects: tuple[str, ...]
    placements: tuple[str, ...]


THEMES: tuple[ClassTheme, ...] = (
    ClassTheme(
        "banana",
        ("pick up", "grab", "lift", "fetch", "collect", "retrieve"),
        ("the banana", "the ripe banana", "the yellow banana", "a banana",
         "the curved banana", "the peeled banana"),
        ("and place it in the fruit basket", "and put it on the tray",
         "and drop it into the crate", "and set it beside the bowl"),
    ),
    ClassTheme(
        "tomato",
        ("stack", "pile", "arrange", "gather", "sort", "heap"),
        ("the tomatoes", "the red tomatoes", "the ripe tomatoes", "two tomatoes",
         "the cherry tomatoes", "the fresh tomatoes"),
        ("on the plate", "in the salad bowl", "onto the cutting board",
         "inside the pantry"),
    ),
    ClassTheme(
        "stapler",
        ("place", "put", "set", "position", "move", "lay"),
        ("the stapler", "the office stapler", "the red stapler", "a stapler",
         "the heavy stapler", "the metal stapler"),
        ("on the desk", "in the drawer", "next to the printer", "on the shelf"),
    ),
    ClassTheme(
        "die",
        ("select", "choose", "pick out", "find", "point to", "identify"),
        ("the die", "the blue die", "the six sided die", "a die",
         "the wooden die", "the spotted die"),
        ("from the game box", "on the board", "near the playing cards",
         "from the pile"),
    ),
    ClassTheme(
        "water",
        ("pour", "fill", "serve", "tip", "decant", "empty"),
        ("half a glass of water", "the water", "some water", "a cup of water",
         "the cold water", "the sparkling water"),
        ("into the mug", "into the glass", "over the sink", "into the pitcher"),
    ),
    ClassTheme(
        "cube",
        ("pick up", "hoist", "raise", "grasp", "clutch", "hold"),
        ("the cube", "the green cube", "the foam cube", "a cube",
         "the wooden cube", "the tiny cube"),
        ("and stack it on the tower", "and drop it in the toy bin",
         "and leave it by the blocks", "and rest it on the mat"),
    ),
    ClassTheme(
        "puzzle",
        ("rotate", "twist", "turn", "redirect", "spin", "orient"),
        ("the puzzle", "the color puzzle", "the twisty puzzle",
         "the scrambled puzzle", "the speed puzzle", "the magic puzzle"),
        ("toward the camera", "to face north", "onto its side",
         "a quarter turn clockwise"),
    ),
    ClassTheme(
        "dog",
        ("command", "steer", "guide", "direct", "drive", "walk"),
        ("the robot dog", "the quadruped", "the robotic hound",
         "the mechanical dog", "the walking robot", "the four legged bot"),
        ("to the charging dock", "around the room", "toward the door",
         "past the table"),
    ),
    ClassTheme(
        "cans",
        ("stack", "balance", "line up", "tower", "organize", "pile up"),
        ("the cans", "the soda cans", "the tin cans", "three cans",
         "the empty cans", "the soup cans"),
        ("on the counter", "into a pyramid", "along the ledge",
         "in the cupboard"),
    ),
    ClassTheme(
        "corn",
        ("pick up", "harvest", "grab", "fetch", "gather", "collect"),
        ("the corn", "the corn cob", "the ear of corn", "the sweet corn",
         "the husked corn", "the golden corn"),
        ("and place it into the basket", "and lay it on the grill",
         "and drop it in the pot", "and set it beside the butter"),
    ),
    ClassTheme(
        "book",
        ("open", "shelve", "close", "stow", "slide", "carry"),
        ("the book", "the paperback", "the notebook", "the hardcover",
         "the novel", "the manual"),
        ("on the bookshelf", "onto the nightstand", "into the backpack",
         "under the lamp"),
    ),
    ClassTheme(
        "bottle",
        ("uncap", "shake", "recycle", "squeeze", "rinse", "crush"),
        ("the bottle", "the plastic bottle", "the glass bottle",
         "the water bottle", "the empty bottle", "the blue bottle"),
        ("into the recycling bin", "on the rack", "by the cooler",
         "into the crate"),
    ),
)

# Share of each class's sampled instructions marked "train".
TRAIN_FRACTION = 0.8

_PREFIXES = ("", "please ", "could you ", "now ")
_SUFFIXES = ("", " for me", " right away", " carefully", " slowly", " gently")


def _enumerate_templates(theme: ClassTheme) -> list[str]:
    """Every prefix, core and suffix combination in order; distinct for every theme here."""
    cores = [f"{v} {o}" for v, o in product(theme.verbs, theme.objects)]
    cores += [f"{v} {o} {p}" for v, o, p in
              product(theme.verbs, theme.objects, theme.placements)]
    return [f"{prefix}{core}{suffix}" for prefix, core, suffix in
            product(_PREFIXES, cores, _SUFFIXES)]


def generate_synthetic_corpus(n_classes: int, per_class: int, seed: int) -> list[InstructionRecord]:
    """Deterministically sample a labelled, split-annotated instruction corpus.

    ``n_classes`` (2 to the number of themes), ``per_class`` (at least 10)
    and ``seed`` are integers, not bools. Every class contributes exactly
    ``per_class`` unique instructions: the first
    round(TRAIN_FRACTION * per_class) of each class's sample order are marked
    "train" and the rest "test", so with at least 10 per class both splits
    hold at least two.
    """
    check_int(n_classes, "n_classes", 2, len(THEMES) + 1)
    check_int(per_class, "per_class", 10)
    check_int(seed, "seed")

    records: list[InstructionRecord] = []
    for class_id in range(n_classes):
        texts = _enumerate_templates(THEMES[class_id])
        if per_class > len(texts):
            raise ValueError(
                f"class {class_id} ({THEMES[class_id].name}) can only produce "
                f"{len(texts)} unique instructions; {per_class} requested"
            )
        rng = np.random.default_rng([seed, class_id])
        order = rng.permutation(len(texts))[:per_class]
        n_train = int(round(per_class * TRAIN_FRACTION))
        for rank, text_idx in enumerate(order):
            records.append(
                InstructionRecord(
                    text=texts[text_idx],
                    task_id=class_id,
                    split="train" if rank < n_train else "test",
                )
            )
    return records


def write_corpus(
    records: list[InstructionRecord], destination: str | Path, *, force: bool = False
) -> None:
    """Write records as JSONL; refuses to overwrite unless ``force``.

    The existence check and the rename are separate steps: two writers without
    ``force`` can race, and a symlink at ``destination`` is replaced.
    """
    path = Path(destination)
    if path.exists() and not force:
        raise FileExistsError(f"{path} already exists (use force to overwrite)")
    lines = [json.dumps(asdict(r)) for r in records]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_corpus(source: str | Path) -> list[InstructionRecord]:
    """Read a JSONL corpus, validating every record and naming bad lines."""
    records: list[InstructionRecord] = []
    # Lines end where text mode ends them, at \n, \r or \r\n; each is decoded alone.
    for lineno, raw in enumerate(Path(source).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            doc = parse_json(line, "invalid JSON")
            doc = json_fields(doc, "corpus record", ("text", "task_id", "split"))
            record = InstructionRecord(**doc)
            tokenize(record.text, None)  # refuses a text featurization would refuse
            records.append(record)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if not records:
        raise ValueError(f"{source}: corpus is empty")
    return records
