"""Run configuration: one JSON document drives generation, the pipeline, and
reporting. Unknown keys anywhere in the document are errors, so typos fail
fast instead of silently running defaults, and every value is checked against
its field's annotation (see `mapping`). Every config type checks its own
values when it is built, from a document, in Python or by
`dataclasses.replace`, so a config that exists is valid; a message names the
value at fault by its dotted key in the document (`grid.horizon`)."""

from dataclasses import dataclass, field, replace
from typing import Annotated

from . import mapping
from .dataset import MODALITIES, GeneratorConfig
from .decision import ContextWeights
from .errors import ConfigError
from .scenario import ModalityWeights
from .sim2real import MOVES, GridEnv, RandomizationConfig


def chunk_records(grid) -> int:
    """Survivors per score_chunk call: about 64,000 solver value cells of
    n_states * (horizon + 1) per record, and at least 128 (see CHANGES.md)."""
    return max(128, 64_000 // (grid.width * grid.height * (grid.horizon + 1)))


@dataclass(frozen=True)
class GridSpec:
    """Base gridworld shared by the simulated and 'real' environments; the
    goal cell is placed per record, goal_distance cells from the start in the
    direction named by the winning decision."""

    width: mapping.Count = 5
    height: mapping.Count = 5
    start: tuple[int, int] = (2, 2)
    goal_distance: mapping.Count = 2
    step_reward: float = -1.0
    goal_reward: float = 10.0
    slip_prob: float = 0.0
    horizon: mapping.Count = 4
    real_step_reward: float = -1.2

    def __post_init__(self):
        mapping.check_fields(self, "grid")
        cells = self.width * self.height * max(4, self.horizon + 1)  # a chunk row's solver tables
        mapping.check(f"grid.width * grid.height * max(4, grid.horizon + 1) * "
                      f"{chunk_records(self)} chunk rows", cells * chunk_records(self), int,
                      "< 2**60")
        if self.horizon < self.goal_distance:
            raise ConfigError(f"grid.horizon {self.horizon} shorter than grid.goal_distance "
                              f"{self.goal_distance}")
        try:
            self.envs()
        except ConfigError as exc:
            raise ConfigError(f"grid: {exc}") from None

    def envs(self) -> tuple:
        """The unrandomized simulated and the real environment per goal
        direction, in action order; both are immutable, so every record of a
        run shares them."""
        x, y = self.start
        pairs = []
        for dx, dy in MOVES:
            sim_base = GridEnv(width=self.width, height=self.height, start=(x, y),
                               goal=(x + dx * self.goal_distance, y + dy * self.goal_distance),
                               step_reward=self.step_reward, goal_reward=self.goal_reward,
                               slip_prob=self.slip_prob, horizon=self.horizon)
            pairs.append((sim_base, replace(sim_base, step_reward=self.real_step_reward)))
        return tuple(pairs)


@dataclass(frozen=True)
class AlignConfig:
    steps: Annotated[int, ">= 1"] = 300
    learning_rate: Annotated[float, "> 0"] = 0.05
    lambda_task: Annotated[float, ">= 0"] = 0.1
    samples: Annotated[int, ">= 1"] = 128  # trajectories rolled out per domain

    def __post_init__(self):
        mapping.check_fields(self, "align")


def check_actions(generator: GeneratorConfig) -> None:
    """Each action is a grid move: checked on a run config's generator and on
    the one a run actually uses, a loaded file's `meta.generator`."""
    if generator.n_actions > len(MOVES):
        raise ConfigError(f"generator.n_actions must be <= {len(MOVES)}, the grid moves that "
                          f"realize actions, got {generator.n_actions}")


@dataclass(frozen=True)
class RunConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    dataset_path: str | None = None
    tau: Annotated[float, "[0, 1]"] = 0.5
    weights: ModalityWeights = field(
        default_factory=lambda: ModalityWeights(0.6, 0.2, 0.2)
    )
    # one value per relevance dimension; zeros at run time when absent
    internal_state: tuple[float, float] | None = None
    instruction: tuple[float, float] | None = None
    m_count: mapping.Count = 16
    k: Annotated[int, ">= 1"] = 4
    noise_width: Annotated[float, ">= 0"] = 0.1
    rel_threshold: Annotated[float, "(0, 1)"] = 0.5
    beta: Annotated[float, "[0, 1]"] = 0.3
    sparse_readout_top_n: Annotated[int, ">= 1"] = 8
    sparse_readout_threshold: Annotated[int, ">= 0"] = 64
    context_weights: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    lambda_feedback: Annotated[float, ">= 0"] = 0.4
    gamma: Annotated[float, "[0, 1]"] = 0.95
    alpha: Annotated[float, ">= 0"] = 0.5
    grid: GridSpec = field(default_factory=GridSpec)
    randomization: RandomizationConfig = field(default_factory=RandomizationConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    seed: int = 42
    workers: Annotated[int, ">= 1"] = 1
    modalities: tuple[str, ...] = MODALITIES
    out_dir: str = "msr_out"

    def __post_init__(self):
        mapping.check_fields(self, "")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        check_actions(self.generator)
        rows = chunk_records(self.grid)  # a chunk's pool of 2 * m_count two-value scenarios
        mapping.check(f"m_count * 4 * {rows} chunk rows", self.m_count * 4 * rows, int, "< 2**60")
        ContextWeights(self.context_weights)  # rejects negative or all-zero weights
        bad = [m for m in self.modalities if m not in MODALITIES]
        if bad:
            raise ConfigError(f"unknown modalities {bad}")
        if not self.modalities:
            raise ConfigError("at least one modality required")
        if len(set(self.modalities)) < len(self.modalities):
            raise ConfigError(f"modalities must not repeat, got {list(self.modalities)}")

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        return mapping.from_mapping(cls, data, "")

    def to_mapping(self) -> dict:
        return {**mapping.to_mapping(self), "generator": self.generator.to_mapping()}
