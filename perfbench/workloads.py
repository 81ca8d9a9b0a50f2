"""The benchmark's workloads: what each round generates, trains and scores.

A round is one complete experiment in a fresh directory: one `gen-data`,
the training of all four stages of every mode, and one `eval` of every
checkpoint named in `evals`. Two more `gen-data` of the same dataset into
side directories, one before and one after, time the short gen-data
twice more per round. Each gen-data, trained stage and eval is one
operation. Every round of a workload runs the same operations on data
drawn from a seed derived from the run's `--seed` and the round's index,
so the number attempted per round is fixed and only the images differ.

This module imports nothing from the program, so `run.py` can list the
workloads without paying for numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# The built-in curriculum: stage t introduces these category ids.
STAGE_CATEGORIES = ((1,), (2,), (3,), (4, 5))
ALL_CATEGORIES = (1, 2, 3, 4, 5)
BATCH_SIZE = 2
LAMBDA_KD = 2.0
# Size of every val/test split that no operation scores: the program's
# default. They give gen-data a dataset of a realistic shape, long enough
# to time, at no cost to training.
UNSCORED_SPLIT = 40


@dataclass(frozen=True)
class Workload:
    name: str
    image_size: int
    train_count: int  # per stage dataset
    full_val_count: int  # images scored by every eval
    # Epochs of each stage. A joint run takes the first stage's entry,
    # as the CLI does.
    epochs: tuple[int, ...]
    lr: float
    modes: tuple[str, ...]
    # (mode, stage) of every checkpoint that is evaluated, in order;
    # a joint run writes only its final stage.
    evals: tuple[tuple[str, int], ...]
    # Dice bounds on the stage-1 category (lobe, id 1), keyed by the
    # evaluated checkpoint: (lowest allowed, highest allowed).
    lobe_bounds: dict = field(default_factory=dict)

    def stage_categories(self, mode: str) -> list[tuple[int, ...]]:
        if mode == "joint":
            return [ALL_CATEGORIES]
        return list(STAGE_CATEGORIES)

    def stage_numbers(self, mode: str) -> list[int]:
        return [len(STAGE_CATEGORIES)] if mode == "joint" else list(range(1, len(STAGE_CATEGORIES) + 1))

    def train_samples(self, mode: str) -> int:
        """Training samples in one epoch of one stage."""
        return self.train_count * (len(STAGE_CATEGORIES) if mode == "joint" else 1)

    def stage_epochs(self, mode: str, stage: int) -> int:
        return self.epochs[0 if mode == "joint" else stage - 1]

    def samples_per_round(self) -> tuple[int, int]:
        """(rendered by one gen-data, consumed by training)."""
        rendered = len(STAGE_CATEGORIES) * (self.train_count + 2 * UNSCORED_SPLIT) + self.full_val_count + UNSCORED_SPLIT
        trained = sum(
            self.stage_epochs(mode, t) * self.train_samples(mode) for mode in self.modes for t in self.stage_numbers(mode)
        )
        return rendered, trained

    def experiment_config(self, seed: int, out: str) -> dict:
        """The `ilseg --config` document of one round."""
        stages = [
            {"new_categories": list(cats), "epochs": epochs, "batch_size": BATCH_SIZE, "lr": self.lr, "lambda_kd": LAMBDA_KD}
            for cats, epochs in zip(STAGE_CATEGORIES, self.epochs)
        ]
        return {
            "seed": seed,
            "out": out,
            "data": {
                "image_size": self.image_size,
                "train_count": self.train_count,
                "val_count": UNSCORED_SPLIT,
                "test_count": UNSCORED_SPLIT,
                "full_val_count": self.full_val_count,
                "full_test_count": UNSCORED_SPLIT,
            },
            "model": {},
            "modes": list(self.modes),
            "stages": stages,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="curriculum-64",
            image_size=64,
            train_count=6,
            full_val_count=8,
            # 30 steps in stage 1: at 15-20 about one seed in ten stays at
            # the all-background solution and fails the stage-1 floor.
            epochs=(10, 5, 5, 5),
            lr=5e-3,
            modes=("full",),
            evals=tuple(("full", t) for t in (1, 2, 3, 4)),
            lobe_bounds={("full", 1): (0.7, 1.0), ("full", 4): (0.5, 1.0)},
        ),
        Workload(
            name="baselines-eval-64",
            image_size=64,
            train_count=4,
            full_val_count=16,
            epochs=(5, 5, 5, 5),
            lr=5e-3,
            modes=("ft", "joint"),
            evals=tuple(("ft", t) for t in (1, 2, 3, 4)) + (("joint", 4),),
            lobe_bounds={("ft", 4): (0.0, 0.2)},
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same operations at a size that runs in seconds (self-test)."""
    return replace(w, image_size=32, train_count=4, full_val_count=2, epochs=(3, 3, 3, 3), lobe_bounds={})
